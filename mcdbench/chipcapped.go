package main

import (
	"fmt"
	"runtime"
	"time"

	"mcddvfs/internal/clock"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/governor"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// The chip workload: four heterogeneous cores under per-domain
// adaptive DVFS and the integral-gain governor at 7.5 W per core, a
// budget below the chip's demand, so the governor caps every epoch.
const (
	chipCores    = 4
	chipInsts    = 25000
	chipGovernor = "integral-gain"
	chipBudgetW  = 7.5 * chipCores
)

func chipOptions(c config) experiment.Options {
	return experiment.Options{Instructions: chipInsts, Seed: c.simSeed(), Cores: chipCores, Governor: chipGovernor, PowerCapW: chipBudgetW}
}

// chipDigest hashes the canonical encoding of a chip result.
func chipDigest(r *mcd.ChipResult, corrupt bool) string {
	d := newDigest()
	d.add("chip", r)
	if corrupt {
		d.h.Write([]byte{0})
	}
	return d.sum()
}

// timedGovernor puts a span around every epoch decision.
type timedGovernor struct {
	g          mcd.Governor
	t          *tracer
	parent, op int
}

func (g timedGovernor) Apportion(now clock.Time, powerW, capMHz []float64) {
	id := g.t.begin("governor.Apportion", g.parent, g.op)
	g.g.Apportion(now, powerW, capMHz)
	g.t.end(id)
}

// buildChip constructs the workload's chip from the public mcd,
// scheme and governor entry points the way experiment.RunChip does,
// with an explicit worker-pool size. The checks compare its result
// with RunChip's byte for byte.
func buildChip(t *tracer, parent, op int, seed int64, workers int) (*mcd.Chip, []trace.Source, error) {
	cfg := mcd.ChipConfig{PowerCapW: chipBudgetW}
	for i := 0; i < chipCores; i++ {
		cfg.Cores = append(cfg.Cores, machineConfig(seed+int64(i)))
	}
	chip, err := mcd.NewChip(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < chip.Cores(); i++ {
		if err := experiment.AttachScheme(chip.Core(i), experiment.SchemeAdaptive, experiment.Options{Seed: seed}); err != nil {
			return nil, nil, err
		}
	}
	desc, ok := governor.Lookup(chipGovernor)
	if !ok {
		return nil, nil, fmt.Errorf("governor %q is not registered", chipGovernor)
	}
	gov, err := desc.New(governor.Options{Cores: chipCores, BudgetW: chipBudgetW, Range: machineConfig(seed).Range})
	if err != nil {
		return nil, nil, err
	}
	if t != nil {
		gov = timedGovernor{gov, t, parent, op}
	}
	chip.SetGovernor(gov)
	chip.SetWorkers(workers)
	srcs := make([]trace.Source, chipCores)
	for i := range srcs {
		prof, err := trace.ByName(experiment.DefaultChipBenchmarks[i%len(experiment.DefaultChipBenchmarks)])
		if err != nil {
			return nil, nil, err
		}
		if srcs[i], err = trace.NewGenerator(prof, trace.StreamSeed(seed+int64(i)), chipInsts); err != nil {
			return nil, nil, err
		}
	}
	return chip, srcs, nil
}

// runBuiltChip builds and runs the chip, with spans when t is non-nil.
func runBuiltChip(t *tracer, op int, seed int64, workers int) (*mcd.ChipResult, *mcd.Chip, error) {
	id := t.begin("chip.run", 0, op)
	defer t.end(id)
	var chip *mcd.Chip
	var srcs []trace.Source
	var err error
	t.timed("chip.build", id, op, func() { chip, srcs, err = buildChip(t, id, op, seed, workers) })
	if err != nil {
		return nil, nil, err
	}
	var res *mcd.ChipResult
	t.timed("mcd.Chip.RunContext", id, op, func() { res, err = chip.Run(srcs) })
	if err != nil {
		return nil, nil, err
	}
	for _, r := range res.Cores {
		r.Scheme = string(experiment.SchemeAdaptive)
	}
	return res, chip, nil
}

func runChipCapped(c config) (*report, error) {
	rep := newReport()
	experiment.SetCaching(false)
	defer experiment.SetCaching(true)
	opt := chipOptions(c)

	// Set-up: validate the spec and run one untimed chip to completion.
	var setups []float64
	want := committedDigest("chip-capped", c)
	for i := 0; i < 5; i++ {
		start := time.Now()
		r, err := experiment.RunChip(nil, experiment.SchemeAdaptive, opt)
		if err != nil {
			return nil, fmt.Errorf("warm-up chip: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if want == "" {
			want = chipDigest(r, false) // other seeds: every run must reproduce the first
		}
	}

	window := c.seconds
	if c.trace {
		window = c.seconds / 3
	}
	win := newWindow(window, 100)
	var lats []float64
	var elapsed time.Duration
	for win.open() {
		runtime.GC() // each run starts from a collected heap
		start := time.Now()
		r, err := experiment.RunChip(nil, experiment.SchemeAdaptive, opt)
		d := time.Since(start)
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("chip run %d: %v", len(lats), err)
		case chipDigest(r, c.inject == "corrupt" && len(lats) == 0) != want:
			rep.fail("chip run %d: result digest differs", len(lats))
		}
		lats = append(lats, d.Seconds())
		elapsed += d
		win.done = len(lats)
	}
	if !c.trace {
		setCommon(rep, setups, groupRates(lats, 10), lats, 0.90)
		rep.set("retained_heap_mb", retainedHeapMB(), "MB")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		fmt.Printf("# sim_insts_per_s %.0f\n", float64(len(lats)*chipCores*chipInsts)/elapsed.Seconds())
	}
	// The result must not depend on the pool size.
	one, _, err := runBuiltChip(nil, 0, c.simSeed(), 1)
	rep.check(err == nil && chipDigest(one, false) == want, "chip at pool size 1 differs from RunChip at GOMAXPROCS (%v)", err)
	if !c.trace {
		return rep, nil
	}
	return rep, chipTraced(c, rep, want, len(lats), elapsed)
}

// chipTraced re-runs the chip through the public mcd.Chip, scheme and
// governor entry points with spans around construction, the run and
// every governor epoch decision, measures the pool speedup, and fills
// the chip, governor, mcd and trace metrics.
func chipTraced(c config, rep *report, want string, ops int, untraced time.Duration) error {
	t := newTracer()
	rep.spans = t
	procs := runtime.GOMAXPROCS(0)
	seed := c.simSeed()
	var last *mcd.ChipResult
	var chip *mcd.Chip
	start := time.Now()
	for op := 0; op < ops; op++ {
		r, ch, err := runBuiltChip(t, op, seed, procs)
		rep.check(err == nil && chipDigest(r, false) == want, "traced chip run %d differs from RunChip (%v)", op, err)
		last, chip = r, ch
	}
	traced := time.Since(start)
	if last == nil {
		return fmt.Errorf("no traced chip run completed")
	}
	rep.layers = layerTable(t, untraced)
	rep.set("bench.attributed_share", attributedShare(rep.layers), "share")
	rep.set("bench.tracing_overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1), "%")

	runTime, nrun := t.byName("mcd.Chip.RunContext")
	rep.set("chip.run_s", runTime.Seconds()/float64(nrun), "s")
	rep.set("chip.epochs", float64(len(last.EpochTrace)), "count")
	rep.set("governor.cap_error_pct", 100*(last.MeanPowerW()-chipBudgetW)/chipBudgetW, "%")

	// Pool speedup: the same chip at one worker and at GOMAXPROCS.
	var serial, parallel []float64
	for k := 0; k < 3; k++ {
		for _, w := range []int{1, procs} {
			s := time.Now()
			r, _, err := runBuiltChip(nil, 0, seed, w)
			d := time.Since(s).Seconds()
			rep.check(err == nil && chipDigest(r, false) == want, "chip at pool size %d differs (%v)", w, err)
			if w == 1 {
				serial = append(serial, d)
			} else {
				parallel = append(parallel, d)
			}
		}
	}
	rep.set("chip.pool_speedup", median(serial)/median(parallel), "x")
	fmt.Printf("# chip.pool_speedup measured at 1 vs %d workers\n", procs)

	// mcd: engine counters and host cost per simulated instruction and
	// event, summed over the cores of the last run.
	var slow, skipped, cycles uint64
	var ipc float64
	for i := 0; i < chip.Cores(); i++ {
		for _, s := range chip.Core(i).EngineStats() {
			slow += s.SlowEdges
			skipped += s.SkippedEdges
		}
	}
	for _, r := range last.Cores {
		cycles += r.Domains[mcd.NameFrontEnd].Cycles
		ipc += r.IPC
	}
	perRun := float64(runTime.Nanoseconds()) / float64(nrun)
	rep.set("mcd.run_s", perRun/1e9, "s")
	rep.set("mcd.ns_per_sim_inst", perRun/float64(last.Metrics.Instructions), "ns")
	rep.set("mcd.ns_per_slow_edge", perRun/float64(slow), "ns")
	rep.set("mcd.slow_edges", float64(slow), "count")
	rep.set("mcd.skipped_edges", float64(skipped), "count")
	rep.set("mcd.skip_share", share(skipped, slow), "share")
	rep.set("mcd.sim_cycles", float64(cycles), "cycles")
	rep.set("mcd.ipc", ipc/float64(len(last.Cores)), "insts/cycle")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runBuiltChip(nil, 0, seed, 1) //nolint:errcheck // allocation probe of a checked run
	runtime.ReadMemStats(&after)
	rep.set("mcd.allocs_per_cell", float64(after.Mallocs-before.Mallocs)/chipCores, "count")
	rep.set("mcd.alloc_mb_per_cell", float64(after.TotalAlloc-before.TotalAlloc)/chipCores/1e6, "MB")

	// trace: generating every core's stream.
	var gen time.Duration
	var n int64
	for i := 0; i < chipCores; i++ {
		prof, _ := trace.ByName(experiment.DefaultChipBenchmarks[i%len(experiment.DefaultChipBenchmarks)])
		g, err := trace.NewGenerator(prof, trace.StreamSeed(seed+int64(i)), chipInsts)
		if err != nil {
			return err
		}
		gen += t.timed("trace.Generator.Next", 0, -1, func() {
			for {
				if _, ok := g.Next(); !ok {
					break
				}
				n++
			}
		})
	}
	rep.set("trace.gen_ns_per_inst", float64(gen.Nanoseconds())/float64(n), "ns")
	return nil
}
