package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/spectrum"
)

// renderInsts is the instruction budget behind every artifact
// warm-render renders: at this size a cheap render takes tens of
// milliseconds and a classifying one a few hundred, so a 20 s window
// holds the samples the reported tail needs.
const renderInsts = 25000

// artifact is one renderable catalog entry in one format.
type artifact struct {
	id     string
	format experiment.ArtifactFormat
}

func (a artifact) String() string { return a.id + "." + string(a.format) }

// classifies reports whether rendering the artifact runs the §5.2
// spectral classifier (and so costs hundreds of milliseconds even
// with every cell cached).
func (a artifact) classifies() bool { return a.id == "fig11" || a.id == "summary" || a.id == "table2" }

// cheapArtifacts render straight from the matrix; classifyingArtifacts
// classify every benchmark first.
var (
	cheapArtifacts = []artifact{
		{"fig9", "txt"}, {"fig9", "json"}, {"fig9", "svg"},
		{"fig10", "txt"}, {"fig10", "json"}, {"fig10", "svg"},
	}
	classifyingArtifacts = []artifact{
		{"fig11", "txt"}, {"fig11", "json"}, {"fig11", "svg"},
		{"summary", "txt"}, {"summary", "json"},
		{"table2", "txt"}, {"table2", "json"},
	}
)

// opMix is a fixed cycle of operations shuffled by the seed: cycle-slow
// cheap entries and slow costly ones, drawn by the seed, so the shares
// of each latency mode are exact whatever the seed and each reported
// percentile stays inside one mode.
func opMix(rng *rand.Rand, cycle, slow int, cheap, costly []artifact) []artifact {
	out := make([]artifact, 0, cycle)
	for i := 0; i < cycle-slow; i++ {
		out = append(out, cheap[i%len(cheap)])
	}
	for i := 0; i < slow; i++ {
		out = append(out, costly[(i+rng.Intn(len(costly)))%len(costly)])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func renderOptions(c config, dir string) experiment.Options {
	return experiment.Options{Instructions: renderInsts, Seed: c.simSeed(), CacheDir: dir}
}

func runWarmRender(c config) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	scratch := filepath.Join(c.out, "scratch", "warm-render")
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	all := append(append([]artifact(nil), cheapArtifacts...), classifyingArtifacts...)

	// Set-up: fill an empty disk cache by rendering every artifact cold
	// (the first render simulates the matrix; the bytes are the
	// reference every warm render must reproduce).
	var setups []float64
	var dir string
	ref := map[artifact][]byte{}
	for i := 0; i < 3; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = freshDir(scratch); err != nil {
			return nil, err
		}
		start := time.Now()
		experiment.ResetCache()
		for _, a := range all {
			body, _, err := experiment.RenderArtifactContext(ctx, a.id, a.format, renderOptions(c, dir))
			if err != nil {
				return nil, fmt.Errorf("cold render %s: %w", a, err)
			}
			ref[a] = body
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	store, err := experiment.DiskStore(dir, 0)
	if err != nil {
		return nil, err
	}

	// Operations: 70% cheap renders, 30% classifying ones, so the p50
	// sits in the cheap mode and the p90 in the classifying mode.
	mix := opMix(rand.New(rand.NewSource(c.seed)), 20, 6, cheapArtifacts, classifyingArtifacts)
	window := c.seconds
	if c.trace {
		window = c.seconds / 3
	}
	before := store.Stats()
	lats, ops, elapsed := warmOps(c, rep, nil, mix, ref, dir, newWindow(window, 100), nil)
	after := store.Stats()
	if sims := after.Misses - before.Misses; sims != 0 {
		rep.fail("warm renders missed the disk cache %d times and re-simulated", sims)
	}
	if !c.trace {
		setCommon(rep, setups, groupRates(lats, len(mix)), lats, 0.90)
		// What a process keeps after one warm fig9 render, whichever
		// artifact the window happened to end on.
		experiment.ResetCache()
		_, _, err := experiment.RenderArtifactContext(ctx, "fig9", "txt", renderOptions(c, dir))
		rep.check(err == nil, "final render fig9.txt: %v", err)
		rep.set("retained_heap_mb", retainedHeapMB(), "MB")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		return rep, nil
	}
	return rep, warmTraced(c, rep, mix, ref, dir, store, ops, elapsed, before, after)
}

// warmOps renders artifacts from the mix in order until the window
// closes (with a nil window, exactly len(gets) of them), each from an
// empty in-process cache, checking every output against the cold
// reference. With a tracer, each render is one span; gets, when
// non-nil, receives the disk reads each render made.
func warmOps(c config, rep *report, t *tracer, mix []artifact, ref map[artifact][]byte, dir string, win *window, gets []uint64) ([]float64, int, time.Duration) {
	ctx := context.Background()
	store, _ := experiment.DiskStore(dir, 0)
	var lats []float64
	var elapsed time.Duration
	n := 0
	for (win != nil && win.open()) || (win == nil && n < len(gets)) {
		a := mix[n%len(mix)]
		runtime.GC() // each render starts from a collected heap, as in a fresh process
		before := store.Stats().Hits
		id := t.begin("experiment.render", 0, n)
		start := time.Now()
		t.timed("experiment.ResetCache", id, n, experiment.ResetCache)
		body, _, err := experiment.RenderArtifactContext(ctx, a.id, a.format, renderOptions(c, dir))
		d := time.Since(start)
		t.end(id)
		if gets != nil {
			gets[n] = store.Stats().Hits - before
		}
		if c.inject == "corrupt" && n == 0 {
			body = append([]byte{'!'}, body...)
		}
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("render %s: %v", a, err)
		case !bytes.Equal(body, ref[a]):
			rep.fail("render %s: %d bytes differ from the cold render", a, len(body))
		}
		lats = append(lats, d.Seconds())
		elapsed += d
		n++
		if win != nil {
			win.done = n
		}
	}
	return lats, n, elapsed
}

// warmTraced repeats the untraced renders with spans, then probes the
// layers the renders spend their time in — diskcache Get on every
// entry, spectrum.Classify on every baseline series, and the
// warm-memory render of each artifact — and attributes the render time
// to them through the call counts the program's counters report.
func warmTraced(c config, rep *report, mix []artifact, ref map[artifact][]byte, dir string, store *diskcache.Store,
	ops int, untraced time.Duration, before, after diskcache.Stats) error {
	t := newTracer()
	rep.spans = t
	gets := make([]uint64, ops)
	start := time.Now()
	warmOps(c, rep, t, mix, ref, dir, nil, gets)
	traced := time.Since(start)

	// diskcache: read back every entry through the store.
	names, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		return err
	}
	var baselines []*mcd.Result
	var getTime time.Duration
	for _, name := range names {
		var key [32]byte
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(name), ".res"))
		if err != nil || len(raw) != len(key) {
			continue
		}
		copy(key[:], raw)
		var res mcd.Result
		getTime += t.timed("diskcache.Get", 0, -1, func() { err = store.Get(key, &res) })
		rep.check(err == nil, "probe get %s: %v", filepath.Base(name), err)
		if res.Scheme == string(experiment.SchemeNone) {
			baselines = append(baselines, &res)
		}
	}
	getMS := float64(getTime.Nanoseconds()) / 1e6 / float64(len(names))
	rep.set("diskcache.get_ms", getMS, "ms")
	_, kb := dirStats(dir)
	rep.set("diskcache.entry_kb", kb, "KB")
	rep.set("diskcache.hit_share", share(after.Hits-before.Hits, after.Misses-before.Misses), "share")
	rep.set("experiment.simulations", float64(after.Misses-before.Misses), "count")

	// spectrum: classify every baseline series the way Table 2 does.
	classifyMS, perRender := classifyProbe(t, baselines)
	rep.set("spectrum.classify_ms", classifyMS, "ms")

	// experiment: warm-memory render of each cheap artifact.
	rep.set("experiment.render_ms", memRenderMS(t, cheapArtifacts, renderOptions(c, dir)), "ms")
	h, m := experiment.CacheStats()
	rep.set("experiment.mem_hit_share", share(h, m), "share")
	if mm, err := experiment.RunMatrix(renderOptions(c, dir)); err == nil {
		ad := mm.MeanComparison(experiment.SchemeAdaptive, nil)
		rep.set("mcd.sim_energy_saving_pct", 100*ad.EnergySaving, "%")
		rep.set("mcd.sim_perf_degradation_pct", 100*ad.PerfDegradation, "%")
	}

	// Attribution in worker time (pool size × wall): each render's disk
	// reads at the probed Get cost and each classifying render's
	// classifier calls at the probed cost; the rest of the pool's time
	// during the render spans is the experiment layer's (idle workers
	// included).
	workers := float64(runtime.GOMAXPROCS(0))
	var diskMS, specMS float64
	var diskCalls, specCalls int
	for i := 0; i < ops; i++ {
		diskMS += float64(gets[i]) * getMS
		diskCalls += int(gets[i])
		if mix[i%len(mix)].classifies() {
			specMS += float64(perRender) * classifyMS
			specCalls += perRender
		}
	}
	renderTime, _ := t.byName("experiment.render")
	capacity := workers * float64(untraced.Nanoseconds()) / 1e6
	own := math.Max(0, workers*float64(renderTime.Nanoseconds())/1e6-diskMS-specMS)
	rep.layers = []layerRow{
		{"diskcache", diskMS, diskCalls, diskMS / capacity, "probe x count"},
		{"experiment", own, ops, own / capacity, "spans x workers - probes"},
		{"spectrum", specMS, specCalls, specMS / capacity, "probe x count"},
	}
	rep.set("bench.attributed_share", attributedShare(rep.layers), "share")
	rep.set("bench.tracing_overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1), "%")
	return nil
}

// classifyProbe classifies each baseline's occupancy series as
// experiment.ClassifyBenchmarks does and returns the mean time per
// spectrum.Classify call and the number of calls one classification of
// the suite makes.
func classifyProbe(t *tracer, baselines []*mcd.Result) (float64, int) {
	var total time.Duration
	calls := 0
	for _, r := range baselines {
		for _, dom := range []string{mcd.NameInt, mcd.NameFP, mcd.NameLS} {
			samples := r.QueueSamples[dom]
			if len(samples) < 64 {
				continue
			}
			total += t.timed("spectrum.Classify", 0, -1, func() {
				spectrum.Classify(samples, spectrum.DefaultIntervalSamples, spectrum.DefaultFastShareThreshold) //nolint:errcheck // timing probe
			})
			calls++
		}
	}
	if calls == 0 {
		return 0, 0
	}
	return float64(total.Nanoseconds()) / 1e6 / float64(calls), calls
}

// memRenderMS is the mean time to render each artifact with every
// cell already in the in-process cache.
func memRenderMS(t *tracer, arts []artifact, opt experiment.Options) float64 {
	ctx := context.Background()
	var total time.Duration
	for _, a := range arts {
		experiment.RenderArtifactContext(ctx, a.id, a.format, opt) //nolint:errcheck // warms the memory tier; errors surface below
		total += t.timed("experiment.RenderArtifactContext", 0, -1, func() {
			experiment.RenderArtifactContext(ctx, a.id, a.format, opt) //nolint:errcheck // timing probe of a checked render
		})
	}
	return float64(total.Nanoseconds()) / 1e6 / float64(len(arts))
}
