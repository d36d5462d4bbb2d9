package mcddvfs

// One benchmark per table/figure of the paper's evaluation (see the
// DESIGN.md experiment index), plus micro-benchmarks for the hot
// components. The macro benchmarks run reduced instruction budgets so
// `go test -bench=. -benchmem` completes in minutes; cmd/experiments
// regenerates the full-scale artifacts. Custom metrics report the
// headline quantity each artifact is about, so the bench output doubles
// as a miniature results table.

import (
	"bytes"
	"fmt"
	"testing"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/control"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/spectrum"
	"mcddvfs/internal/trace"
)

// benchOpt returns the reduced-budget harness options for macro benches.
func benchOpt(insts int64, benches ...string) experiment.Options {
	return experiment.Options{Instructions: insts, Seed: 1, Benchmarks: benches}
}

// uncached disables the harness result cache for the duration of a
// benchmark. Without this, every iteration after the first would be a
// cache hit and ns/op would measure a map lookup, not a simulation.
func uncached(b *testing.B) {
	b.Helper()
	experiment.SetCaching(false)
	b.Cleanup(func() { experiment.SetCaching(true) })
}

// BenchmarkTable1Config regenerates the simulation-parameter table.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiment.Table1(experiment.DefaultOptions())
		if len(rep.Lines) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Classification regenerates the benchmark
// classification table (full suite, reduced budget).
func BenchmarkTable2Classification(b *testing.B) {
	uncached(b)
	opt := benchOpt(100000)
	for i := 0; i < b.N; i++ {
		rep, classes, err := experiment.Table2(opt)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
		b.ReportMetric(float64(len(experiment.FastGroup(classes))), "fast-benchmarks")
	}
}

// BenchmarkFigure7FrequencyTrace regenerates the epic_decode FP-domain
// frequency trajectory under the adaptive controller.
func BenchmarkFigure7FrequencyTrace(b *testing.B) {
	uncached(b)
	opt := benchOpt(200000)
	for i := 0; i < b.N; i++ {
		rep, err := experiment.Figure7(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Lines) < 5 {
			b.Fatal("trace too short")
		}
	}
}

// BenchmarkFigure8Spectrum regenerates the INT-queue variance spectrum
// of epic_decode.
func BenchmarkFigure8Spectrum(b *testing.B) {
	uncached(b)
	opt := benchOpt(150000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure8(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// figureMatrix runs the shared benchmark × scheme grid for the three
// comparison figures.
func figureMatrix(b *testing.B) *experiment.Matrix {
	b.Helper()
	m, err := experiment.RunMatrix(benchOpt(60000))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFigure9EnergySavings regenerates the per-benchmark energy
// savings comparison and reports the adaptive scheme's suite average.
func BenchmarkFigure9EnergySavings(b *testing.B) {
	uncached(b)
	for i := 0; i < b.N; i++ {
		m := figureMatrix(b)
		rep := m.Figure9()
		if len(rep.Lines) < 18 {
			b.Fatalf("figure 9 has %d lines", len(rep.Lines))
		}
		b.ReportMetric(100*m.MeanComparison(experiment.SchemeAdaptive, nil).EnergySaving, "%energy-save")
	}
}

// BenchmarkFigure10PerfDegradation regenerates the performance
// degradation comparison.
func BenchmarkFigure10PerfDegradation(b *testing.B) {
	uncached(b)
	for i := 0; i < b.N; i++ {
		m := figureMatrix(b)
		_ = m.Figure10()
		b.ReportMetric(100*m.MeanComparison(experiment.SchemeAdaptive, nil).PerfDegradation, "%perf-degr")
	}
}

// BenchmarkFigure11FastGroupEDP regenerates the fast-group EDP
// comparison (adaptive vs the fixed-interval schemes).
func BenchmarkFigure11FastGroupEDP(b *testing.B) {
	uncached(b)
	fast := []string{"adpcm_encode", "adpcm_decode", "g721_encode", "gsm_decode", "art"}
	for i := 0; i < b.N; i++ {
		m, err := experiment.RunMatrix(benchOpt(60000, fast...))
		if err != nil {
			b.Fatal(err)
		}
		_ = m.Figure11(fast)
		ad := m.MeanComparison(experiment.SchemeAdaptive, nil).EDPImprovement
		pid := m.MeanComparison(experiment.SchemePID, nil).EDPImprovement
		b.ReportMetric(100*ad, "%edp-adaptive")
		b.ReportMetric(100*pid, "%edp-pid")
	}
}

// BenchmarkTable3PIDIntervals regenerates the PID interval-length sweep.
func BenchmarkTable3PIDIntervals(b *testing.B) {
	uncached(b)
	opt := benchOpt(60000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table3(opt, []string{"adpcm_encode", "gsm_decode"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Hardware regenerates the hardware-cost comparison.
func BenchmarkTable4Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiment.Table4()
		if len(rep.Lines) != 4 {
			b.Fatal("bad table4")
		}
	}
	b.ReportMetric(float64(control.AdaptiveHardware().Gates()), "adaptive-gates")
}

// BenchmarkStabilityRemarks regenerates the Section-4 analysis report
// (analytic quantities plus RK4 validation runs).
func BenchmarkStabilityRemarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RemarksReport(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationControllerFeatures regenerates the controller
// feature ablation on two representative benchmarks.
func BenchmarkAblationControllerFeatures(b *testing.B) {
	uncached(b)
	opt := benchOpt(50000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Ablation(opt, []string{"adpcm_encode", "gzip"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransitionStyles regenerates the XScale-vs-Transmeta
// transition-model comparison.
func BenchmarkTransitionStyles(b *testing.B) {
	uncached(b)
	opt := benchOpt(50000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TransitionStyles(opt, []string{"adpcm_encode", "gzip"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMatrix measures the benchmark × scheme sweep that feeds
// Figures 9-11 under five caching regimes: cold with the shared trace
// bank (the default), cold with per-cell trace generation (the
// pre-sharing behavior), cold streaming traces from an on-disk corpus,
// warm from the in-process cache, and warm from the on-disk cache
// (models re-rendering after process death). Every regime reports
// cells/s — matrix cells retired per second, the throughput figure the
// corpus work targets — so BENCH_baseline.json gates it.
func BenchmarkRunMatrix(b *testing.B) {
	opt := benchOpt(60000, "adpcm_encode", "gsm_decode", "gzip", "swim")
	check := func(m *experiment.Matrix, err error) int {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Failures) != 0 {
			b.Fatal(m.Failures[0].Error())
		}
		return len(m.Benchmarks) * (len(m.Schemes) + 1)
	}
	reportCells := func(b *testing.B, cells int) {
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	}

	b.Run("cold-shared-trace", func(b *testing.B) {
		uncached(b)
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += check(experiment.RunMatrix(opt))
		}
		reportCells(b, cells)
	})
	b.Run("cold-per-cell-trace", func(b *testing.B) {
		uncached(b)
		experiment.SetTraceSharing(false)
		b.Cleanup(func() { experiment.SetTraceSharing(true) })
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += check(experiment.RunMatrix(opt))
		}
		reportCells(b, cells)
	})
	b.Run("cold-corpus", func(b *testing.B) {
		uncached(b)
		copt := opt
		copt.CorpusDir = buildBenchCorpus(b, opt)
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += check(experiment.RunMatrix(copt))
		}
		reportCells(b, cells)
	})
	b.Run("warm-memory", func(b *testing.B) {
		experiment.ResetCache()
		b.Cleanup(experiment.ResetCache)
		check(experiment.RunMatrix(opt)) // populate
		b.ResetTimer()
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += check(experiment.RunMatrix(opt))
		}
		reportCells(b, cells)
	})
	b.Run("warm-disk", func(b *testing.B) {
		dopt := opt
		dopt.CacheDir = b.TempDir()
		experiment.ResetCache()
		b.Cleanup(experiment.ResetCache)
		check(experiment.RunMatrix(dopt)) // populate the store
		b.ResetTimer()
		cells := 0
		for i := 0; i < b.N; i++ {
			experiment.ResetCache() // drop memory: every cell decodes from disk
			cells += check(experiment.RunMatrix(dopt))
		}
		reportCells(b, cells)
	})
}

// buildBenchCorpus emits a chunked trace corpus matching opt into a
// temporary directory for the cold-corpus matrix regime.
func buildBenchCorpus(b *testing.B, opt experiment.Options) string {
	b.Helper()
	dir := b.TempDir()
	man := trace.CorpusManifest{FormatVersion: 2, Seed: opt.Seed, Instructions: opt.Instructions}
	for _, name := range opt.Benchmarks {
		prof, err := trace.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		m, err := trace.EmitCorpusMember(dir, prof, opt.Seed, opt.Instructions, 0)
		if err != nil {
			b.Fatal(err)
		}
		man.Members = append(man.Members, m)
	}
	if err := trace.WriteCorpusManifest(dir, man); err != nil {
		b.Fatal(err)
	}
	return dir
}

// ---------------------------------------------------------------------
// Micro-benchmarks for the hot components.
// ---------------------------------------------------------------------

// BenchmarkSimulatorThroughput measures raw simulated instructions per
// second of the MCD machine with no DVFS controller attached.
func BenchmarkSimulatorThroughput(b *testing.B) {
	uncached(b)
	const insts = 100000
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunOne("gzip", experiment.SchemeNone, benchOpt(insts))
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.Instructions != insts {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(float64(insts*int64(b.N))/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkChip measures whole-chip simulation throughput across the
// cores × governor grid, with per-domain adaptive control on every core
// and the capping governors holding a 7.5 W/core budget. The custom
// metric is chip-level simulated instructions per second — the figure
// the epoch-barrier worker pool exists to scale — so the 4-core rows
// double as the parallel-speedup record next to the single-core ones.
func BenchmarkChip(b *testing.B) {
	uncached(b)
	const instsPerCore = 30000
	for _, cores := range []int{1, 4} {
		for _, gov := range []string{"none", "static-split", "integral-gain"} {
			b.Run(fmt.Sprintf("cores=%d/gov=%s", cores, gov), func(b *testing.B) {
				opt := benchOpt(instsPerCore)
				opt.Cores = cores
				opt.Governor = gov
				if gov != "none" {
					opt.PowerCapW = 7.5 * float64(cores)
				}
				var total int64
				for i := 0; i < b.N; i++ {
					res, err := experiment.RunChip(nil, experiment.SchemeAdaptive, opt)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Metrics.Instructions
				}
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim-insts/s")
			})
		}
	}
}

// BenchmarkAdaptiveObserve measures one controller sampling tick.
func BenchmarkAdaptiveObserve(b *testing.B) {
	c := control.NewAdaptive(control.DefaultConfig(DomainInt))
	now := clock.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 4 * clock.Nanosecond
		c.Observe(now, i%20, 700)
	}
}

// BenchmarkTraceGeneration measures synthetic instruction generation.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, err := trace.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	g, err := trace.NewGenerator(prof, 1, int64(b.N)+1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator ran dry")
		}
	}
}

// BenchmarkChunkedReplay measures streamed replay from the chunked
// on-disk trace format through a two-chunk window: the steady-state
// cost of a corpus-backed matrix cell's instruction feed. allocs/op is
// the gated figure — per-instruction decode must stay allocation-free,
// with only the per-chunk load amortized across its instructions.
func BenchmarkChunkedReplay(b *testing.B) {
	prof, err := trace.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	const insts = 1 << 15
	gen, err := trace.NewGenerator(prof, 1, insts)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.WriteChunked(&buf, gen, insts, 4096); err != nil {
		b.Fatal(err)
	}
	c, err := trace.OpenChunked(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 2)
	if err != nil {
		b.Fatal(err)
	}
	cur := c.Replay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, ok := cur.Next()
		if !ok {
			if err := cur.Err(); err != nil {
				b.Fatal(err)
			}
			cur = c.Replay()
			if in, ok = cur.Next(); !ok {
				b.Fatal("empty trace")
			}
		}
		_ = in
	}
}

// BenchmarkMultitaperSpectrum measures the Figure-8 estimator on a
// 64K-sample series.
func BenchmarkMultitaperSpectrum(b *testing.B) {
	x := make([]float64, 1<<16)
	for i := range x {
		x[i] = float64(i%17) + float64(i%257)/10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectrum.Multitaper(x, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalCoupling regenerates the per-domain vs globally
// coupled scaling comparison (extension E1).
func BenchmarkGlobalCoupling(b *testing.B) {
	uncached(b)
	opt := benchOpt(50000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.GlobalComparison(opt, []string{"gzip", "swim"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQRefSweep regenerates the reference-occupancy sensitivity
// sweep (extension E2).
func BenchmarkQRefSweep(b *testing.B) {
	uncached(b)
	opt := benchOpt(50000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.QRefSweep(opt, []string{"gsm_decode"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterfaceStudy regenerates the synchronization-interface
// comparison (extension E3).
func BenchmarkInterfaceStudy(b *testing.B) {
	uncached(b)
	opt := benchOpt(40000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.InterfaceStudy(opt, []string{"gsm_decode"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionStudy regenerates the 4- vs 5-domain partition
// comparison (extension E4).
func BenchmarkPartitionStudy(b *testing.B) {
	uncached(b)
	opt := benchOpt(40000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.PartitionStudy(opt, []string{"gzip"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelaySweep regenerates the time-delay sweep (extension E5).
func BenchmarkDelaySweep(b *testing.B) {
	uncached(b)
	opt := benchOpt(30000)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.DelaySweep(opt, []string{"gsm_decode"}); err != nil {
			b.Fatal(err)
		}
	}
}
