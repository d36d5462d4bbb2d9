package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"time"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// machineConfig is the harness's Table-1 machine for a seed, built
// from the public mcd API the way experiment.Options does internally.
// The traced runs check that cells simulated through it match the
// harness's results bit for bit, so a drift shows as a failure.
func machineConfig(seed int64) mcd.Config {
	cfg := mcd.DefaultConfig()
	cfg.Seed = seed
	cfg.SampleLimit = 1 << 17
	return cfg
}

// matrixSchemes is the column order of every matrix: the baseline,
// then the controlled schemes.
func matrixSchemes() []experiment.Scheme {
	return append([]experiment.Scheme{experiment.SchemeNone}, experiment.ControlledSchemes()...)
}

// cellResult is one matrix cell simulated from the benchmark's side.
type cellResult struct {
	res   *mcd.Result
	stats map[string]clockStats
}

// clockStats is the part of the engine statistics the metrics use.
type clockStats struct{ slow, skipped uint64 }

// simulateCell runs one cell on a replay of rec, with spans around the
// construction and the run.
func simulateCell(t *tracer, parent, op int, rec *trace.Recorded, sch experiment.Scheme, seed int64) (cellResult, error) {
	var p *mcd.Processor
	var err error
	t.timed("mcd.build", parent, op, func() {
		p, err = mcd.New(machineConfig(seed))
		if err == nil {
			err = experiment.AttachScheme(p, sch, experiment.Options{Seed: seed})
		}
	})
	if err != nil {
		return cellResult{}, err
	}
	var res *mcd.Result
	t.timed("mcd.RunContext", parent, op, func() {
		res, err = p.Run(rec.Replay())
	})
	if err != nil {
		return cellResult{}, err
	}
	res.Scheme = string(sch)
	if sch != experiment.SchemeNone {
		// RunMatrix keeps occupancy series only for the baseline.
		cp := *res
		cp.QueueSamples = nil
		res = &cp
	}
	stats := map[string]clockStats{}
	for name, s := range p.EngineStats() {
		stats[name] = clockStats{s.SlowEdges, s.SkippedEdges}
	}
	return cellResult{res, stats}, nil
}

// resultDigest hashes the canonical (JSON, map keys sorted, floats in
// shortest exact form) encoding of every result in order.
type resultDigest struct{ h hash.Hash }

func newDigest() *resultDigest { return &resultDigest{sha256.New()} }

func (d *resultDigest) add(label string, v any) {
	fmt.Fprintf(d.h, "%s\n", label)
	blob, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(d.h, "unencodable: %v\n", err)
		return
	}
	d.h.Write(blob)
}

func (d *resultDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// matrixDigest hashes every cell of a matrix in row and column order.
// corrupt damages the encoded output, for the self-test.
func matrixDigest(m *experiment.Matrix, corrupt bool) string {
	d := newDigest()
	for _, b := range m.Benchmarks {
		for _, s := range matrixSchemes() {
			d.add(b+"/"+string(s), m.Results[b][s])
		}
	}
	if corrupt {
		d.h.Write([]byte{0})
	}
	return d.sum()
}

// observeNS replays each recorded occupancy series of the baseline
// results through a fresh adaptive controller and returns the host
// time per Observe call.
func observeNS(t *tracer, results []*mcd.Result) float64 {
	var total time.Duration
	calls := 0
	doms := map[string]isa.ExecDomain{mcd.NameInt: isa.DomainInt, mcd.NameFP: isa.DomainFP, mcd.NameLS: isa.DomainLS}
	for _, r := range results {
		for _, name := range []string{mcd.NameInt, mcd.NameFP, mcd.NameLS} {
			series := r.QueueSamples[name]
			if len(series) == 0 {
				continue
			}
			a := control.NewAdaptive(control.DefaultConfig(doms[name]))
			mhz := 1000.0
			total += t.timed("control.Observe", 0, -1, func() {
				for i, v := range series {
					if f, ok := a.Observe(clockTime(i), int(v), mhz); ok {
						mhz = f
					}
				}
			})
			calls += len(series)
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// clockTime is the instant of the i-th 250 MHz occupancy sample.
func clockTime(i int) clock.Time { return clock.Time(i+1) * 4 * clock.Nanosecond }

// freshDir creates a new empty directory under parent.
func freshDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}

// dirStats returns the entry count and mean entry size in KB of a
// disk-cache directory.
func dirStats(dir string) (int, float64) {
	names, _ := filepath.Glob(filepath.Join(dir, "*.res"))
	var total int64
	for _, n := range names {
		if fi, err := os.Stat(n); err == nil {
			total += fi.Size()
		}
	}
	if len(names) == 0 {
		return 0, 0
	}
	return len(names), float64(total) / float64(len(names)) / 1e3
}

func share(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
