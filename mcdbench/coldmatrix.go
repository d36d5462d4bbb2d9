package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// coldInsts is the per-cell instruction budget of the cold matrix:
// small enough that a 20 s window holds about ten full sweeps (over a
// hundred row samples for the p90), large enough that simulation, not
// per-cell setup, dominates.
const coldInsts = 25000

func coldOptions(c config, dir string) experiment.Options {
	return experiment.Options{Instructions: coldInsts, Seed: c.simSeed(), CacheDir: dir}
}

// coldSweep is one timed operation of cold-matrix: RunMatrix over the
// whole suite with the in-process cache dropped and a new, empty
// disk-cache directory. It returns the matrix, the sweep's wall time,
// and the gaps between consecutive streamed rows (the latency a user
// of incremental rendering sees per figure row).
func coldSweep(c config, scratch string, hook func(experiment.RowEvent)) (*experiment.Matrix, time.Duration, []float64, error) {
	dir, err := freshDir(scratch)
	if err != nil {
		return nil, 0, nil, err
	}
	defer os.RemoveAll(dir)
	experiment.ResetCache()
	opt := coldOptions(c, dir)
	var gaps []float64
	runtime.GC() // each sweep starts from a collected heap, as in a fresh process
	start := time.Now()
	last := start
	opt.RowFlush = func(ev experiment.RowEvent) {
		// Rows are delivered one at a time under the harness's flusher
		// lock, so appending here needs no further synchronization.
		now := time.Now()
		gaps = append(gaps, now.Sub(last).Seconds())
		last = now
		if hook != nil {
			hook(ev)
		}
	}
	m, err := experiment.RunMatrix(opt)
	return m, time.Since(start), gaps, err
}

// slowSim is the self-test's injected slowdown: every streamed row is
// simulated a second time from the benchmark's side, doubling the
// simulation work of a sweep without changing any output.
func slowSim(c config) func(experiment.RowEvent) {
	return func(ev experiment.RowEvent) {
		prof, err := trace.ByName(ev.Bench)
		if err != nil {
			return
		}
		rec, err := trace.RecordProfile(prof, trace.StreamSeed(c.simSeed()), coldInsts)
		if err != nil {
			return
		}
		for _, s := range matrixSchemes() {
			simulateCell(nil, 0, 0, rec, s, c.simSeed()) //nolint:errcheck // discarded extra work
		}
	}
}

func runColdMatrix(c config) (*report, error) {
	rep := newReport()
	scratch := filepath.Join(c.out, "scratch", "cold-matrix")
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-up: an untimed warm-up sweep over two benchmarks, so lazy
	// initialization and heap growth finish before timing.
	var setups []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		dir, err := freshDir(scratch)
		if err != nil {
			return nil, err
		}
		experiment.ResetCache()
		opt := coldOptions(c, dir)
		opt.Benchmarks = trace.Names()[:2]
		if _, err := experiment.RunMatrix(opt); err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		os.RemoveAll(dir)
	}

	want := committedDigest("cold-matrix", c)
	var hook func(experiment.RowEvent)
	if c.inject == "slow-sim" {
		hook = slowSim(c)
	}
	untracedWindow := c.seconds
	if c.trace {
		untracedWindow = c.seconds / 3
	}
	win := newWindow(untracedWindow, 100)
	var (
		elapsed   time.Duration
		rates     []float64
		gaps      []float64
		cells     int
		sweeps    int
		last      *experiment.Matrix
		disk0, _  = experiment.DiskCacheStats()
		memHits   uint64
		memMisses uint64
	)
	for win.open() {
		m, d, g, err := coldSweep(c, scratch, hook)
		n := len(trace.Names()) * len(matrixSchemes())
		rep.attempted += int64(n)
		if err != nil {
			rep.fail("sweep %d: %v", sweeps, err)
			rep.failed += int64(n - 1)
			sweeps++
			continue
		}
		elapsed += d
		rates = append(rates, float64(n)/d.Seconds())
		// ResetCache zeroes the memory-tier counters, so take them per sweep.
		h, mi := experiment.CacheStats()
		memHits, memMisses = memHits+h, memMisses+mi
		gaps = append(gaps, g...)
		cells += n
		win.done = len(gaps)
		bad := len(m.Failures)
		for _, f := range m.Failures {
			rep.fail("sweep %d: %v", sweeps, f.Error())
		}
		got := matrixDigest(m, c.inject == "corrupt" && sweeps == 0)
		if want == "" {
			want = got // other seeds: every sweep must reproduce the first
		}
		if got != want && bad < n {
			rep.fail("sweep %d: result digest %s, want %s", sweeps, got[:16], want[:16])
			rep.failed += int64(n - bad - 1)
		}
		last = m
		sweeps++
	}
	disk1, _ := experiment.DiskCacheStats()

	if !c.trace {
		setCommon(rep, setups, rates, gaps, 0.90)
		fmt.Printf("# sim_insts_per_s %.0f over %d sweeps\n", float64(cells*coldInsts)/elapsed.Seconds(), sweeps)
		if last != nil {
			ad := last.MeanComparison(experiment.SchemeAdaptive, nil)
			fmt.Printf("# simulated adaptive vs none, suite mean (checked only against the paper's reconstructed 9%%/3%%): energy saving %.4f%%, perf degradation %.4f%%\n",
				100*ad.EnergySaving, 100*ad.PerfDegradation)
		}
		rep.set("retained_heap_mb", retainedHeapMB(), "MB")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		return rep, nil
	}
	if last == nil {
		return rep, nil
	}
	return rep, coldTraced(c, rep, last, sweeps, elapsed, scratch, memHits, memMisses, disk0, disk1)
}

// coldTraced re-enacts the untraced sweeps cell by cell through the
// layers' public entry points — trace.RecordProfile, mcd.New with
// experiment.AttachScheme, Processor.Run on a replay, diskcache Put —
// with one span per call, checks every re-enacted cell against the
// RunMatrix result, and derives the per-layer metrics.
func coldTraced(c config, rep *report, ref *experiment.Matrix, sweeps int, untraced time.Duration, scratch string,
	memHits, memMisses uint64, disk0, disk1 diskcache.Stats) error {
	t := newTracer()
	rep.spans = t
	workers := runtime.GOMAXPROCS(0)
	benches := ref.Benchmarks
	schemes := matrixSchemes()
	seed := c.simSeed()
	want := matrixDigest(ref, false)

	type recording struct {
		once sync.Once
		rec  *trace.Recorded
		err  error
	}
	var (
		traced    time.Duration
		lastCells []cellResult
		lastRecs  []*recording
		lastDir   string
	)
	for k := 0; k < sweeps; k++ {
		dir, err := freshDir(scratch)
		if err != nil {
			return err
		}
		store, err := diskcache.Open(dir, 0)
		if err != nil {
			return err
		}
		recs := make([]*recording, len(benches))
		for i := range recs {
			recs[i] = &recording{}
		}
		cells := make([]cellResult, len(benches)*len(schemes))
		errs := make([]error, len(cells))
		next := make(chan int)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					b, s := i/len(schemes), schemes[i%len(schemes)]
					op := k*len(cells) + i
					id := t.begin("experiment.cell", 0, op)
					r := recs[b]
					r.once.Do(func() {
						prof, err := trace.ByName(benches[b])
						if err != nil {
							r.err = err
							return
						}
						t.timed("trace.RecordProfile", id, op, func() {
							r.rec, r.err = trace.RecordProfile(prof, trace.StreamSeed(seed), coldInsts)
						})
					})
					if r.err != nil {
						errs[i] = r.err
						t.end(id)
						continue
					}
					cr, err := simulateCell(t, id, op, r.rec, s, seed)
					if err == nil {
						key := cellKey(benches[b], s, seed)
						t.timed("diskcache.Put", id, op, func() { err = store.Put(key, cr.res) })
					}
					cells[i], errs[i] = cr, err
					t.end(id)
				}
			}()
		}
		for i := range cells {
			next <- i
		}
		close(next)
		wg.Wait()
		traced += time.Since(start)

		d := newDigest()
		for i, cr := range cells {
			label := benches[i/len(schemes)] + "/" + string(schemes[i%len(schemes)])
			if errs[i] != nil {
				rep.fail("traced cell %s: %v", label, errs[i])
				continue
			}
			d.add(label, cr.res)
		}
		rep.check(d.sum() == want, "traced sweep %d: re-enacted cells digest %s differs from RunMatrix %s", k, d.sum()[:16], want[:16])
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastCells, lastRecs, lastDir = cells, recs, dir
	}
	defer os.RemoveAll(lastDir)

	capacity := time.Duration(workers) * untraced
	rep.layers = layerTable(t, capacity)
	rep.set("bench.attributed_share", attributedShare(rep.layers), "share")
	rep.set("bench.tracing_overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1), "%")
	cellTime, _ := t.byName("experiment.cell")
	rep.set("experiment.pool_efficiency", cellTime.Seconds()/(float64(workers)*traced.Seconds()), "share")

	recTime, nrec := t.byName("trace.RecordProfile")
	rep.set("trace.gen_ns_per_inst", float64(recTime.Nanoseconds())/float64(nrec*coldInsts), "ns")
	var recBytes int64
	var replay time.Duration
	var replayed int64
	for _, r := range lastRecs {
		if r.rec == nil {
			continue
		}
		recBytes += r.rec.Bytes()
		replay += t.timed("trace.Replayer.Next", 0, -1, func() {
			cur := r.rec.Replay()
			for {
				if _, ok := cur.Next(); !ok {
					break
				}
				replayed++
			}
		})
	}
	rep.set("trace.recorded_mb", float64(recBytes)/1e6, "MB")
	if replayed > 0 {
		rep.set("trace.replay_ns_per_inst", float64(replay.Nanoseconds())/float64(replayed), "ns")
	}

	runTime, nrun := t.byName("mcd.RunContext")
	var slow, skipped, cycles uint64
	var insts int64
	var ipc float64
	var baselines []*mcd.Result
	for i, cr := range lastCells {
		if cr.res == nil {
			continue
		}
		for _, s := range cr.stats {
			slow += s.slow
			skipped += s.skipped
		}
		cycles += cr.res.Domains[mcd.NameFrontEnd].Cycles
		insts += cr.res.Metrics.Instructions
		if i%len(schemes) == 0 {
			ipc += cr.res.IPC
			baselines = append(baselines, cr.res)
		}
	}
	perSweep := float64(nrun) / float64(len(lastCells))
	rep.set("mcd.run_s", runTime.Seconds()/perSweep, "s")
	rep.set("mcd.ns_per_sim_inst", float64(runTime.Nanoseconds())/(perSweep*float64(insts)), "ns")
	rep.set("mcd.ns_per_slow_edge", float64(runTime.Nanoseconds())/(perSweep*float64(slow)), "ns")
	rep.set("mcd.slow_edges", float64(slow), "count")
	rep.set("mcd.skipped_edges", float64(skipped), "count")
	rep.set("mcd.skip_share", share(skipped, slow), "share")
	rep.set("mcd.sim_cycles", float64(cycles), "cycles")
	rep.set("mcd.ipc", ipc/float64(len(baselines)), "insts/cycle")
	ad := ref.MeanComparison(experiment.SchemeAdaptive, nil)
	rep.set("mcd.sim_energy_saving_pct", 100*ad.EnergySaving, "%")
	rep.set("mcd.sim_perf_degradation_pct", 100*ad.PerfDegradation, "%")
	allocs, bytes := cellAllocs(lastRecs[0].rec, seed)
	rep.set("mcd.allocs_per_cell", allocs, "count")
	rep.set("mcd.alloc_mb_per_cell", bytes/1e6, "MB")
	rep.set("control.observe_ns", observeNS(t, baselines), "ns")

	putTime, nput := t.byName("diskcache.Put")
	rep.set("diskcache.put_ms", float64(putTime.Nanoseconds())/1e6/float64(nput), "ms")
	_, kb := dirStats(lastDir)
	rep.set("diskcache.entry_kb", kb, "KB")
	rep.set("diskcache.hit_share", share(disk1.Hits-disk0.Hits, disk1.Misses-disk0.Misses), "share")
	rep.set("experiment.mem_hit_share", share(memHits, memMisses), "share")
	rep.set("experiment.simulations", float64(disk1.Misses-disk0.Misses)/float64(sweeps), "count")
	return nil
}

// cellKey is the disk-cache key the traced sweep stores a cell under.
func cellKey(bench string, s experiment.Scheme, seed int64) [32]byte {
	d := newDigest()
	d.add("cell", []any{bench, s, seed, coldInsts})
	var k [32]byte
	copy(k[:], d.h.Sum(nil))
	return k
}

// cellAllocs simulates every scheme's cell of one recording serially
// and returns the mean heap allocations and bytes per cell.
func cellAllocs(rec *trace.Recorded, seed int64) (allocs, bytes float64) {
	if rec == nil {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range matrixSchemes() {
		simulateCell(nil, 0, 0, rec, s, seed) //nolint:errcheck // allocation probe; the cells were checked above
	}
	runtime.ReadMemStats(&after)
	n := float64(len(matrixSchemes()))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
