package mcd_test

// The codec suite lives in the external test package so the real-cell
// round trips can attach every scheme's controller and the chip
// governor (internal/governor imports mcd).

import (
	"bytes"
	"encoding"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mcddvfs/internal/baselines"
	"mcddvfs/internal/control"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// fill sets every field reachable from v to a distinct non-zero value:
// strings, signed and unsigned integers, floats (fractional), maps and
// slices of three elements, pointers to filled values. A kind it does
// not know fails the test, so a new field of a new shape cannot slip
// past the field-completeness check unfilled.
func fill(t testing.TB, v reflect.Value, next *int) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(n) << 20) // negative and multi-byte
	case reflect.Uint64:
		v.SetUint(uint64(n) << 40)
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.375)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			fill(t, v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 3; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(t, k, next)
			e := reflect.New(v.Type().Elem()).Elem()
			fill(t, e, next)
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("fill: no filler for kind %s (%s); teach fill and the codec about it", v.Kind(), v.Type())
	}
}

// specials are the float values a raw-bits series must carry exactly.
var specials = []float64{
	math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
	math.Inf(1), math.Inf(-1), -3, 0.25, 1 << 32, 5e-324,
}

// filledResult is a Result with every field non-zero, the series
// corner cases in QueueSamples, and special floats in scalar fields.
func filledResult(t testing.TB) *mcd.Result {
	t.Helper()
	var r mcd.Result
	n := 0
	fill(t, reflect.ValueOf(&r).Elem(), &n)
	r.QueueSamples["specials"] = specials
	r.QueueSamples["counts"] = []float64{0, 1, 127, 128, 1<<32 - 1}
	r.IPC = math.NaN()
	r.L2MissRate = math.Copysign(0, -1)
	r.Metrics.EnergyJ = math.Inf(1)
	return &r
}

func filledChip(t testing.TB) *mcd.ChipResult {
	t.Helper()
	var r mcd.ChipResult
	n := 0
	fill(t, reflect.ValueOf(&r).Elem(), &n)
	r.Cores[1] = filledResult(t)
	r.EpochTrace[0].CapMHz = specials
	r.EpochTrace[1].CorePowerW = []float64{0, 2, 4}
	return &r
}

// diff returns the first difference between a and b, comparing floats
// by their bits (so NaN equals itself and −0 differs from +0), or ""
// when they are identical.
func diff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) != %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil mismatch"
			}
			return ""
		}
		return diff(path, a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d (nil %v) != len %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d (nil %v) != len %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := diff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

type codec interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// roundTrip encodes want, decodes into got, and checks the decode is
// bit-exact and re-encodes to the same bytes. It returns the encoding.
func roundTrip(t *testing.T, label string, want, got codec) []byte {
	t.Helper()
	blob, err := want.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if d := diff(label, reflect.ValueOf(want), reflect.ValueOf(got)); d != "" {
		t.Errorf("round trip changed %s", d)
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: re-encode: %v", label, err)
	}
	if !bytes.Equal(blob, again) {
		t.Errorf("%s: re-encoding the decoded value changed the bytes", label)
	}
	return blob
}

// TestCodecFieldComplete round-trips a Result and a ChipResult with
// every field of every nested type (DomainStats, FreqPoint,
// EpochSample, power.Metrics) set to a distinct non-zero value. A
// field added to any of them without a codec change decodes as zero
// and fails here.
func TestCodecFieldComplete(t *testing.T) {
	roundTrip(t, "Result", filledResult(t), new(mcd.Result))
	roundTrip(t, "ChipResult", filledChip(t), new(mcd.ChipResult))
}

// TestCodecRejectsDamage asserts every strict prefix of an encoding,
// the encoding with a trailing byte, and a foreign codec version all
// fail to decode and leave the target untouched.
func TestCodecRejectsDamage(t *testing.T) {
	for _, v := range []codec{filledResult(t), filledChip(t)} {
		blob, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() codec { return reflect.New(reflect.TypeOf(v).Elem()).Interface().(codec) }
		for n := 0; n < len(blob); n++ {
			got := fresh()
			if err := got.UnmarshalBinary(blob[:n]); err == nil {
				t.Fatalf("%T: %d-byte prefix of %d decoded", v, n, len(blob))
			}
			if !reflect.ValueOf(got).Elem().IsZero() {
				t.Fatalf("%T: failed decode of a %d-byte prefix modified the target", v, n)
			}
		}
		if err := fresh().UnmarshalBinary(append(blob[:len(blob):len(blob)], 0)); err == nil {
			t.Errorf("%T: trailing byte accepted", v)
		}
		bad := append([]byte(nil), blob...)
		bad[0]++
		if err := fresh().UnmarshalBinary(bad); err == nil {
			t.Errorf("%T: foreign codec version accepted", v)
		}
	}
}

// reinsert rebuilds every map field of the struct v points to,
// inserting keys in an order drawn from rng.
func reinsert(v reflect.Value, rng *rand.Rand) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Map || f.IsNil() {
			continue
		}
		keys := f.MapKeys()
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		m := reflect.MakeMapWithSize(f.Type(), len(keys))
		for _, k := range keys {
			m.SetMapIndex(k, f.MapIndex(k))
		}
		f.Set(m)
	}
}

// TestCodecDeterministic asserts the bytes are a pure function of the
// value: maps built in any insertion order, iterated in Go's random
// order, always encode identically.
func TestCodecDeterministic(t *testing.T) {
	r := filledResult(t)
	for k := 0; k < 20; k++ {
		r.Domains[fmt.Sprintf("extra%02d", k)] = mcd.DomainStats{EnergyJ: float64(k)}
		r.QueueSamples[fmt.Sprintf("extra%02d", k)] = []float64{float64(k)}
	}
	want, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		c := *r
		reinsert(reflect.ValueOf(&c).Elem(), rng)
		got, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first: map order leaked into the bytes", i)
		}
	}
}

// schemeAttach attaches each compared scheme's controllers; nil is the
// uncontrolled baseline.
var schemeAttach = map[string]func(*mcd.Processor){
	"none": nil,
	"adaptive": func(p *mcd.Processor) {
		for d := 0; d < isa.NumExecDomains; d++ {
			dom := isa.ExecDomain(d)
			p.Attach(dom, control.NewAdaptive(control.DefaultConfig(dom)))
		}
	},
	"pid": func(p *mcd.Processor) {
		for d := 0; d < isa.NumExecDomains; d++ {
			p.Attach(isa.ExecDomain(d), baselines.NewPID(baselines.DefaultPID()))
		}
	},
	"attack-decay": func(p *mcd.Processor) {
		for d := 0; d < isa.NumExecDomains; d++ {
			p.Attach(isa.ExecDomain(d), baselines.NewAttackDecay(baselines.DefaultAttackDecay()))
		}
	},
}

func simulate(t testing.TB, bench string, insts int64, attach func(*mcd.Processor)) *mcd.Result {
	t.Helper()
	cfg := mcd.DefaultConfig()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, cfg.Seed+100, insts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mcd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(p)
	}
	res, err := p.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCodecRealCells round-trips simulated cells, every scheme on four
// benchmarks, and checks the occupancy series take the one-byte
// integer path: the whole entry must stay under two bytes per sample
// plus the frequency traces and scalars.
func TestCodecRealCells(t *testing.T) {
	for _, bench := range []string{"gzip", "swim", "epic_decode", "mcf"} {
		for name, attach := range schemeAttach {
			res := simulate(t, bench, 20000, attach)
			blob := roundTrip(t, bench+"/"+name, res, new(mcd.Result))
			samples, points := 0, 0
			for _, s := range res.QueueSamples {
				samples += len(s)
			}
			for _, s := range res.FreqTrace {
				points += len(s)
			}
			if limit := 2*samples + 18*points + 1024; len(blob) > limit || samples == 0 {
				t.Errorf("%s/%s: %d-byte entry for %d samples and %d frequency points, want at most %d",
					bench, name, len(blob), samples, points, limit)
			}
		}
	}
}

// TestCodecRealChips round-trips a 1-core chip and a governed 4-core
// chip whose EpochTrace is populated.
func TestCodecRealChips(t *testing.T) {
	for _, benches := range [][]string{{"gzip"}, {"epic_decode", "gzip", "swim", "adpcm_encode"}} {
		cfg := mcd.ChipConfig{Cores: make([]mcd.Config, len(benches))}
		for i := range cfg.Cores {
			cfg.Cores[i] = mcd.DefaultConfig()
			cfg.Cores[i].Seed += int64(i)
		}
		if len(benches) > 1 {
			cfg.PowerCapW = 30
		}
		chip, err := mcd.NewChip(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chip.Cores(); i++ {
			schemeAttach["adaptive"](chip.Core(i))
		}
		if len(benches) > 1 {
			desc, ok := governor.Lookup("integral-gain")
			if !ok {
				t.Fatal("integral-gain governor not registered")
			}
			gov, err := desc.New(governor.Options{Cores: len(benches), BudgetW: cfg.PowerCapW, Range: cfg.Cores[0].Range})
			if err != nil {
				t.Fatal(err)
			}
			chip.SetGovernor(gov)
		}
		srcs := make([]trace.Source, len(benches))
		for i, name := range benches {
			prof, err := trace.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if srcs[i], err = trace.NewGenerator(prof, cfg.Cores[i].Seed+100, 20000); err != nil {
				t.Fatal(err)
			}
		}
		res, err := chip.Run(srcs)
		if err != nil {
			t.Fatal(err)
		}
		if len(benches) > 1 && len(res.EpochTrace) == 0 {
			t.Fatal("governed chip recorded no epochs")
		}
		roundTrip(t, fmt.Sprintf("%d-core chip", len(benches)), res, new(mcd.ChipResult))
	}
}

// heapDelta returns the bytes fn allocates.
func heapDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzResultUnmarshalBinary feeds arbitrary bytes to both decoders.
// Disk bytes are a trust boundary: no input may panic, allocation must
// stay within a constant multiple of the input length (every count is
// checked against the bytes left), and any input that decodes must
// re-encode to a fixed point.
func FuzzResultUnmarshalBinary(f *testing.F) {
	small := simulate(f, "gzip", 3000, schemeAttach["adaptive"])
	for _, v := range []encoding.BinaryMarshaler{small, filledResult(f), filledChip(f)} {
		blob, err := v.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() codec{
			func() codec { return new(mcd.Result) },
			func() codec { return new(mcd.ChipResult) },
		} {
			v := fresh()
			var err error
			alloc := heapDelta(func() { err = v.UnmarshalBinary(data) })
			if limit := 64*uint64(len(data)) + 16<<10; alloc > limit {
				t.Fatalf("%T: decoding %d bytes allocated %d, limit %d", v, len(data), alloc, limit)
			}
			if err != nil {
				continue
			}
			b1, err := v.MarshalBinary()
			if err != nil {
				t.Fatalf("%T: re-encode: %v", v, err)
			}
			w := fresh()
			if err := w.UnmarshalBinary(b1); err != nil {
				t.Fatalf("%T: re-encoded bytes do not decode: %v", v, err)
			}
			b2, err := w.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%T: encoding is not a fixed point", v)
			}
		}
	})
}
