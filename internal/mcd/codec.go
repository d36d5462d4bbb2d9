package mcd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/power"
)

// Binary codec for Result and ChipResult: the persistent result
// cache's payload format. The encoding is a pure function of the value
// — fields in declaration order, maps in sorted-key order — so equal
// results encode to equal bytes, and every float round-trips bit for
// bit. Signed integers are zigzag varints, unsigned ones uvarints,
// float64 scalars raw little-endian IEEE-754 bits; struct fields
// (Metrics, DomainStats) follow declaration order.
//
//	Result      = version body
//	body        = Benchmark Scheme Metrics Domains QueueSamples FreqTrace
//	              IPC BranchMispredictRate L1DMissRate L2MissRate
//	              L1IMissRate QueueFullStalls ForwardedLoads RetiredByClass
//	ChipResult  = version count body... Metrics PowerCapW count EpochSample...
//	EpochSample = Time series(CorePowerW) series(CapMHz) count varint...
//	string      = uvarint length, bytes
//	map         = uvarint count, (string value)... keys strictly increasing
//	series      = tag byte, uvarint count, uvarints (seriesUint) or raw bits (seriesRaw)
//	FreqPoint   = varint Insts, raw MHz
//
// A count of zero decodes as a nil map or slice.

// codecVersion leads every encoding; bump it when the layout changes.
const codecVersion = 1

// Float series tags. Occupancy series hold small non-negative integers
// (queue entries sampled at 250 MHz), which take one uvarint byte
// instead of eight raw ones; any other series keeps its raw bits.
const (
	seriesRaw  = 0
	seriesUint = 1
)

// Minimum encoded sizes of repeated elements. Every count is checked
// against the bytes left before anything is allocated, so a corrupt
// count can never allocate more than a small multiple of the input.
const (
	minDomainStats = 1 + 6*8 + 3          // key length, six floats, three varints
	minResultBody  = 2 + 10 + 3 + 5*8 + 3 // two strings, Metrics, three maps, five floats, two maps and a uvarint
	minEpochSample = 1 + 2 + 2 + 1        // Time, two series, a count
	minFreqPoint   = 1 + 8
)

// MarshalBinary encodes r in the codec layout above.
func (r *Result) MarshalBinary() ([]byte, error) {
	e := encoder{b: make([]byte, 0, r.sizeHint())}
	e.b = append(e.b, codecVersion)
	e.result(r)
	return e.b, nil
}

// UnmarshalBinary decodes data produced by MarshalBinary into r. It
// never retains data. On error r is left unchanged.
func (r *Result) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	d.version()
	var out Result
	d.result(&out)
	if err := d.finish("result"); err != nil {
		return err
	}
	*r = out
	return nil
}

// MarshalBinary encodes r: each core with the Result codec, then the
// chip rollup.
func (r *ChipResult) MarshalBinary() ([]byte, error) {
	hint := 64 + len(r.EpochTrace)*(3+8*len(r.Cores))
	for i, c := range r.Cores {
		if c == nil {
			return nil, fmt.Errorf("mcd: encoding chip result: core %d is nil", i)
		}
		hint += c.sizeHint()
	}
	e := encoder{b: make([]byte, 0, hint)}
	e.b = append(e.b, codecVersion)
	e.uvarint(uint64(len(r.Cores)))
	for _, c := range r.Cores {
		e.result(c)
	}
	e.metrics(r.Metrics)
	e.f64(r.PowerCapW)
	e.uvarint(uint64(len(r.EpochTrace)))
	for _, s := range r.EpochTrace {
		e.varint(int64(s.Time))
		e.series(s.CorePowerW)
		e.series(s.CapMHz)
		e.uvarint(uint64(len(s.CoreInsts)))
		for _, n := range s.CoreInsts {
			e.varint(n)
		}
	}
	return e.b, nil
}

// UnmarshalBinary decodes data produced by ChipResult.MarshalBinary
// into r. It never retains data. On error r is left unchanged.
func (r *ChipResult) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	d.version()
	var out ChipResult
	if n := d.count(minResultBody); n > 0 {
		out.Cores = make([]*Result, n)
		for i := range out.Cores {
			out.Cores[i] = new(Result)
			d.result(out.Cores[i])
		}
	}
	out.Metrics = d.metrics()
	out.PowerCapW = d.f64()
	if n := d.count(minEpochSample); n > 0 {
		out.EpochTrace = make([]EpochSample, n)
		for i := range out.EpochTrace {
			s := &out.EpochTrace[i]
			s.Time = d.time()
			s.CorePowerW = d.series()
			s.CapMHz = d.series()
			if m := d.count(1); m > 0 {
				s.CoreInsts = make([]int64, m)
				for j := range s.CoreInsts {
					s.CoreInsts[j] = d.varint()
				}
			}
		}
	}
	if err := d.finish("chip result"); err != nil {
		return err
	}
	*r = out
	return nil
}

// sizeHint estimates r's encoded size: one byte per occupancy sample,
// ten per frequency point, plus the scalar fields.
func (r *Result) sizeHint() int {
	n := 256 + 64*len(r.Domains)
	for _, s := range r.QueueSamples {
		n += 16 + len(s)
	}
	for _, s := range r.FreqTrace {
		n += 16 + 10*len(s)
	}
	return n
}

// encoder appends the codec's primitives to b.
type encoder struct{ b []byte }

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) metrics(m power.Metrics) {
	e.f64(m.EnergyJ)
	e.varint(int64(m.ExecTime))
	e.varint(m.Instructions)
}

// series writes s as uvarints when every value is a non-negative
// integer below 2^32 (−0 excluded, so its sign survives), raw bits
// otherwise.
func (e *encoder) series(s []float64) {
	tag := seriesUint
	for _, v := range s {
		if !(v >= 0 && v < 1<<32) || v != math.Trunc(v) || math.Signbit(v) {
			tag = seriesRaw
			break
		}
	}
	e.b = append(e.b, byte(tag))
	e.uvarint(uint64(len(s)))
	for _, v := range s {
		if tag == seriesUint {
			e.uvarint(uint64(v))
		} else {
			e.f64(v)
		}
	}
}

func (e *encoder) result(r *Result) {
	e.str(r.Benchmark)
	e.str(r.Scheme)
	e.metrics(r.Metrics)
	putMap(e, r.Domains, func(e *encoder, d DomainStats) {
		e.f64(d.EnergyJ)
		e.f64(d.DynamicJ)
		e.f64(d.LeakageJ)
		e.uvarint(d.Cycles)
		e.f64(d.MeanFreqMHz)
		e.varint(int64(d.Transitions))
		e.varint(int64(d.SlewTime))
		e.f64(d.MeanOccupancy)
		e.f64(d.MeanActivity)
	})
	putMap(e, r.QueueSamples, (*encoder).series)
	putMap(e, r.FreqTrace, func(e *encoder, s []FreqPoint) {
		e.uvarint(uint64(len(s)))
		for _, p := range s {
			e.varint(p.Insts)
			e.f64(p.MHz)
		}
	})
	e.f64(r.IPC)
	e.f64(r.BranchMispredictRate)
	e.f64(r.L1DMissRate)
	e.f64(r.L2MissRate)
	e.f64(r.L1IMissRate)
	putMap(e, r.QueueFullStalls, (*encoder).uvarint)
	e.uvarint(r.ForwardedLoads)
	putMap(e, r.RetiredByClass, (*encoder).varint)
}

// putMap writes m's entries in sorted-key order, so the bytes never
// depend on Go's randomized map iteration.
func putMap[V any](e *encoder, m map[string]V, put func(*encoder, V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		put(e, m[k])
	}
}

// decoder consumes the codec's primitives from b. The first failure
// sticks: later reads return zero values and the decode reports that
// first error.
type decoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated")

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) finish(what string) error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("mcd: decoding %s: %w", what, d.err)
	}
	return nil
}

func (d *decoder) version() {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return
	}
	if v := d.b[0]; v != codecVersion {
		d.fail(fmt.Errorf("codec version %d, want %d", v, codecVersion))
		return
	}
	d.b = d.b[1:]
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) time() clock.Time { return clock.Time(d.varint()) }

func (d *decoder) f64() float64 {
	if len(d.b) < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads an element count and checks that the remaining input
// can hold that many elements of at least minSize bytes each.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)/minSize) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) metrics() power.Metrics {
	return power.Metrics{EnergyJ: d.f64(), ExecTime: d.time(), Instructions: d.varint()}
}

func (d *decoder) series() []float64 {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return nil
	}
	tag := d.b[0]
	d.b = d.b[1:]
	var n int
	switch tag {
	case seriesUint:
		n = d.count(1)
	case seriesRaw:
		n = d.count(8)
	default:
		d.fail(fmt.Errorf("unknown series tag %d", tag))
	}
	if n == 0 {
		return nil
	}
	s := make([]float64, n)
	b := d.b
	if tag == seriesRaw {
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		d.b = b[8*n:]
		return s
	}
	for i := range s {
		if len(b) > 0 && b[0] < 0x80 { // the common one-byte sample
			s[i] = float64(b[0])
			b = b[1:]
			continue
		}
		v, k := binary.Uvarint(b)
		if k <= 0 || v >= 1<<32 {
			d.fail(fmt.Errorf("bad sample %d of %d", i, n))
			return nil
		}
		s[i] = float64(v)
		b = b[k:]
	}
	d.b = b
	return s
}

func (d *decoder) result(r *Result) {
	r.Benchmark = d.str()
	r.Scheme = d.str()
	r.Metrics = d.metrics()
	r.Domains = getMap(d, minDomainStats, func(d *decoder) DomainStats {
		return DomainStats{
			EnergyJ:       d.f64(),
			DynamicJ:      d.f64(),
			LeakageJ:      d.f64(),
			Cycles:        d.uvarint(),
			MeanFreqMHz:   d.f64(),
			Transitions:   int(d.varint()),
			SlewTime:      d.time(),
			MeanOccupancy: d.f64(),
			MeanActivity:  d.f64(),
		}
	})
	r.QueueSamples = getMap(d, 3, (*decoder).series)
	r.FreqTrace = getMap(d, 2, func(d *decoder) []FreqPoint {
		n := d.count(minFreqPoint)
		if n == 0 {
			return nil
		}
		s := make([]FreqPoint, n)
		for i := range s {
			s[i] = FreqPoint{Insts: d.varint(), MHz: d.f64()}
		}
		return s
	})
	r.IPC = d.f64()
	r.BranchMispredictRate = d.f64()
	r.L1DMissRate = d.f64()
	r.L2MissRate = d.f64()
	r.L1IMissRate = d.f64()
	r.QueueFullStalls = getMap(d, 2, (*decoder).uvarint)
	r.ForwardedLoads = d.uvarint()
	r.RetiredByClass = getMap(d, 2, (*decoder).varint)
}

// getMap reads a map written by putMap. Keys must be strictly
// increasing, which rejects duplicates and keeps the encoding
// canonical. minEntry is the smallest encoded entry, key included.
func getMap[V any](d *decoder, minEntry int, get func(*decoder) V) map[string]V {
	n := d.count(minEntry)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail(fmt.Errorf("map key %q out of order", k))
			break
		}
		m[k] = get(d)
		prev = k
	}
	return m
}
