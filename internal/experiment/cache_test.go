package experiment

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mcddvfs/internal/control"
	"mcddvfs/internal/trace"
)

// smallOpt keeps cache tests fast: two benchmarks, short runs.
func smallOpt() Options {
	return Options{Instructions: 20000, Seed: 3, Benchmarks: []string{"gzip", "swim"}}
}

// TestCacheTransparent asserts the determinism contract: a cached and
// an uncached RunMatrix produce identical metrics, cell for cell.
func TestCacheTransparent(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	opt := smallOpt()

	SetCaching(false)
	cold, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}
	SetCaching(true)
	ResetCache()
	warm, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range opt.Benchmarks {
		for s, want := range cold.Results[b] {
			got := warm.Results[b][s]
			if got == nil {
				t.Fatalf("%s/%s missing from cached matrix", b, s)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s/%s metrics differ: uncached %+v cached %+v", b, s, want.Metrics, got.Metrics)
			}
			if want.IPC != got.IPC || want.L1DMissRate != got.L1DMissRate {
				t.Errorf("%s/%s rates differ", b, s)
			}
		}
	}
}

// TestCacheDedupes asserts each distinct (profile, scheme, options)
// triple is simulated once per process: a second identical matrix is
// served entirely from memory, and the shared baseline results keep
// their QueueSamples even though the matrix strips its own copies.
func TestCacheDedupes(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	opt := smallOpt()
	SetCaching(true)
	ResetCache()

	m1, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, misses1 := CacheStats()
	cells := uint64(len(opt.Benchmarks) * (1 + len(ControlledSchemes())))
	if misses1 != cells {
		t.Fatalf("first matrix simulated %d cells, want %d", misses1, cells)
	}

	m2, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses2 := CacheStats()
	if misses2 != cells {
		t.Fatalf("second matrix re-simulated: %d misses, want still %d", misses2, cells)
	}
	if hits != cells {
		t.Fatalf("second matrix hit %d times, want %d", hits, cells)
	}
	for _, b := range opt.Benchmarks {
		if m1.Results[b][SchemeNone] != m2.Results[b][SchemeNone] {
			t.Errorf("%s baseline not shared between matrices", b)
		}
		if len(m1.Results[b][SchemeNone].QueueSamples) == 0 {
			t.Errorf("%s baseline lost its queue samples", b)
		}
		if m1.Results[b][SchemeAdaptive].QueueSamples != nil {
			t.Errorf("%s adaptive cell kept queue samples", b)
		}
	}

	// A distinct seed is a different simulation, never a hit.
	opt2 := opt
	opt2.Seed = opt.Seed + 1
	if _, err := RunOne("gzip", SchemeAdaptive, opt2); err != nil {
		t.Fatal(err)
	}
	if _, misses := CacheStats(); misses != cells+1 {
		t.Errorf("changed seed did not trigger a simulation")
	}
}

// TestCacheKeyCanonicalizesMutator asserts MutateAdaptive is keyed by
// its effect, not its identity: two distinct closures with the same
// effect share one simulation, and an effectively different closure
// does not.
func TestCacheKeyCanonicalizesMutator(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := smallOpt()

	opt.MutateAdaptive = func(c *control.Config) { c.TM0 *= 2 }
	if _, err := RunOne("gzip", SchemeAdaptive, opt); err != nil {
		t.Fatal(err)
	}
	opt.MutateAdaptive = func(c *control.Config) { c.TM0 *= 2 } // same effect, new closure
	if _, err := RunOne("gzip", SchemeAdaptive, opt); err != nil {
		t.Fatal(err)
	}
	if hits, misses := CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("same-effect mutators: %d hits / %d misses, want 1/1", hits, misses)
	}

	opt.MutateAdaptive = func(c *control.Config) { c.TM0 *= 3 }
	if _, err := RunOne("gzip", SchemeAdaptive, opt); err != nil {
		t.Fatal(err)
	}
	if _, misses := CacheStats(); misses != 2 {
		t.Errorf("different-effect mutator was served from cache")
	}
}

// TestCacheKeyGolden pins the result-cache key for the four seed
// schemes to the exact SHA-256 values the pre-registry code produced
// (gzip, Instructions 20000, Seed 3, defaults applied). These keys
// address warm on-disk cache entries, so ANY drift — field order,
// type, the scheme's representation in the key — silently invalidates
// every cache a user has built. If this test fails, the fix is to
// restore the key derivation, not to update the constants (unless
// cacheKeyFormat was deliberately bumped, which orphans old entries
// explicitly; an entry-encoding change bumps diskcache.FormatVersion
// instead and leaves these keys alone).
func TestCacheKeyGolden(t *testing.T) {
	golden := map[Scheme]string{
		SchemeNone:        "a1b6fc3e404c1a72c3f8771a2f99491b02a8f6fbb05df6abbdd7b74b79a08d83",
		SchemeAdaptive:    "558dff26263e5f7001492502462f9eb9515f369c79a7d5c2943a0d26be5b1e68",
		SchemePID:         "71dd02a967ff412b8f5b26060a8f4dfa6542dfa56cf02e838dcbb71de17f3a7d",
		SchemeAttackDecay: "2a445b1ba516bc01748a1d07cfea21e1fcc23abc2261b5637faca300c36057d0",
	}
	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Instructions: 20000, Seed: 3}.withDefaults()
	for sch, want := range golden {
		k, err := cacheKey(prof, sch, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(k[:]); got != want {
			t.Errorf("%s: cache key %s, want %s — existing disk caches no longer hit", sch, got, want)
		}
	}
	// Options.Schemes must never enter the key: a cell simulated for a
	// subset matrix shares warm entries with the full sweep.
	sub := opt
	sub.Schemes = []Scheme{SchemeAdaptive}
	k1, _ := cacheKey(prof, SchemeAdaptive, opt)
	k2, _ := cacheKey(prof, SchemeAdaptive, sub)
	if k1 != k2 {
		t.Error("Options.Schemes leaked into the cache key")
	}
}

// TestCacheSingleFlight asserts concurrent identical requests run one
// simulation and share its result.
func TestCacheSingleFlight(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := smallOpt()

	const callers = 8
	results := make([]interface{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunOne("gzip", SchemeAdaptive, opt)
			if err != nil {
				results[i] = err
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
	if hits, misses := CacheStats(); misses != 1 {
		t.Errorf("%d simulations for one key (hits %d), want 1", misses, hits)
	}
}

// TestForEachParallelErrorIndex asserts the pool collects every
// failure sorted by index, runs the healthy tasks to completion
// anyway, and that firstError names the lowest failing index.
func TestForEachParallelErrorIndex(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	errs := forEachParallel(context.Background(), 1000, func(i int) error {
		ran.Add(1)
		if i == 3 || i == 700 {
			return sentinel
		}
		return nil
	})
	if len(errs) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(errs), errs)
	}
	if errs[0].index != 3 || errs[1].index != 700 {
		t.Errorf("failure indices = %d, %d; want 3, 700", errs[0].index, errs[1].index)
	}
	for _, te := range errs {
		if !errors.Is(te.err, sentinel) {
			t.Errorf("task %d error does not wrap the task error: %v", te.index, te.err)
		}
	}
	if n := ran.Load(); n != 1000 {
		t.Errorf("pool ran %d tasks, want all 1000 despite failures", n)
	}

	err := firstError(errs)
	if err == nil {
		t.Fatal("firstError reported nil for a failed pool")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("firstError does not wrap the task error: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "task 3:") {
		t.Errorf("firstError %q does not name the lowest failing task", err)
	}
}

// TestForEachParallelCompletes asserts every index runs exactly once on
// the success path.
func TestForEachParallelCompletes(t *testing.T) {
	const n = 257
	var seen [n]atomic.Int32
	if errs := forEachParallel(context.Background(), n, func(i int) error {
		seen[i].Add(1)
		return nil
	}); len(errs) != 0 {
		t.Fatal(errs[0].err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times", i, got)
		}
	}
}

// TestForEachParallelRecoversPanic asserts a panicking task is
// converted into an ErrRunPanicked failure for its own index while
// every other task still runs.
func TestForEachParallelRecoversPanic(t *testing.T) {
	var ran atomic.Int64
	errs := forEachParallel(context.Background(), 64, func(i int) error {
		ran.Add(1)
		if i == 17 {
			panic("kaboom")
		}
		return nil
	})
	if n := ran.Load(); n != 64 {
		t.Errorf("pool ran %d tasks, want all 64 despite the panic", n)
	}
	if len(errs) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(errs), errs)
	}
	if errs[0].index != 17 {
		t.Errorf("failure index = %d, want 17", errs[0].index)
	}
	if !errors.Is(errs[0].err, ErrRunPanicked) {
		t.Errorf("panic not wrapped in ErrRunPanicked: %v", errs[0].err)
	}
	if !strings.Contains(errs[0].err.Error(), "kaboom") {
		t.Errorf("panic value lost from error: %v", errs[0].err)
	}
}

// TestForEachParallelCancellation asserts a cancelled context stops
// the pool from starting new tasks and marks the unstarted ones with
// ErrCancelled.
func TestForEachParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	errs := forEachParallel(ctx, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if len(errs) != 100 {
		t.Fatalf("got %d failures, want every task cancelled", len(errs))
	}
	for _, te := range errs {
		if !errors.Is(te.err, ErrCancelled) {
			t.Fatalf("task %d error is not ErrCancelled: %v", te.index, te.err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d tasks ran under a pre-cancelled context", n)
	}
}
