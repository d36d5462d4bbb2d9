package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"mcddvfs/internal/control"
	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// The result cache memoizes RunProfile outcomes, keyed by a content
// hash of everything that determines a simulation: the workload
// profile, the scheme, and the canonicalized options (instruction
// budget, seed, machine configuration — including the fault spec —
// PID interval, and the *effect* of MutateAdaptive). The harness
// regenerates Tables 2-4, Figures 7-11 and the E1-E5 extensions from
// overlapping (benchmark, scheme, options) triples; with the cache
// each distinct triple is simulated exactly once per process.
//
// Caching is two-level. The first level is this in-process map;
// entries use a done-channel so concurrent requests for the same key
// run one simulation and share the result (single-flight). The second,
// optional level is a persistent content-addressed store on disk
// (internal/diskcache, enabled by Options.CacheDir): an in-process
// miss consults the store before simulating, and a successful
// simulation is written back, so completed cells survive process death
// and a warm re-render only decodes. Only clean results ever reach
// disk — errors, and in particular transient CellErrors (timeout,
// cancellation), are never persisted.
//
// Cached *mcd.Result values are shared between callers and MUST be
// treated as read-only. The one historical mutation site — RunMatrix
// stripping QueueSamples from non-baseline cells — now copies the
// struct first.
//
// A simulation is deterministic, so caching never changes any value a
// caller observes; it only removes duplicate work.
var resultCache = struct {
	mu      sync.Mutex
	enabled bool
	entries map[[sha256.Size]byte]*cacheEntry
	hits    uint64
	misses  uint64
}{enabled: true, entries: make(map[[sha256.Size]byte]*cacheEntry)}

type cacheEntry struct {
	done chan struct{}
	res  *mcd.Result
	err  error
}

// SetCaching enables or disables result memoization (both the
// in-process level and the disk level). It is enabled by default;
// disabling is useful for A/B-validating that the cache is transparent
// (artifacts must be byte-identical either way).
func SetCaching(on bool) {
	resultCache.mu.Lock()
	defer resultCache.mu.Unlock()
	resultCache.enabled = on
}

// ResetCache drops every memoized in-process result and zeroes the
// hit/miss counters. On-disk entries are untouched (delete the cache
// directory to force a cold run).
func ResetCache() {
	resultCache.mu.Lock()
	resultCache.entries = make(map[[sha256.Size]byte]*cacheEntry)
	resultCache.hits = 0
	resultCache.misses = 0
	resultCache.mu.Unlock()
	resetChipCache()
	sharedReplays.reset()
}

// CacheStats reports how many RunProfile calls were served from memory
// versus not (disk hits count as misses here; see DiskCacheStats).
func CacheStats() (hits, misses uint64) {
	resultCache.mu.Lock()
	defer resultCache.mu.Unlock()
	return resultCache.hits, resultCache.misses
}

// diskStores holds one open store per cache directory, created
// lazily. A store that fails to open is recorded as nil so a
// misconfigured directory degrades to uncached operation once instead
// of erroring every run.
var diskStores = struct {
	mu      sync.Mutex
	stores  map[string]*diskcache.Store
	openErr error
}{stores: make(map[string]*diskcache.Store)}

// diskStore returns the store for opt.CacheDir, opening it on first
// use, or nil when disk caching is off (empty CacheDir) or the
// directory is unusable.
func diskStore(opt Options) *diskcache.Store {
	if opt.CacheDir == "" {
		return nil
	}
	s, _ := DiskStore(opt.CacheDir, opt.CacheMaxBytes)
	return s
}

// DiskStore returns the process-wide store for dir, opening it on
// first use with the given size budget (later calls reuse the first
// store regardless of maxBytes). Every harness run with
// Options.CacheDir == dir goes through the returned store, so an
// operator attaching an observer or swapping the FS (chaos injection,
// circuit breaking in internal/serve) sees exactly the traffic the
// runs generate. The error reports an unusable directory; such a
// directory is cached as nil, and runs against it silently degrade to
// uncached simulation.
func DiskStore(dir string, maxBytes int64) (*diskcache.Store, error) {
	if dir == "" {
		return nil, invalidSpec(fmt.Errorf("experiment: DiskStore: empty cache directory"))
	}
	diskStores.mu.Lock()
	defer diskStores.mu.Unlock()
	if s, ok := diskStores.stores[dir]; ok {
		if s == nil {
			return nil, diskStores.openErr
		}
		return s, nil
	}
	s, err := diskcache.Open(dir, maxBytes)
	if err != nil {
		s = nil
		diskStores.openErr = err
	}
	diskStores.stores[dir] = s
	return s, err
}

// DiskCacheStats aggregates traffic over every store this process
// opened, plus the first open error (nil when every directory was
// usable). A non-nil error means runs fell back to simulation.
func DiskCacheStats() (diskcache.Stats, error) {
	diskStores.mu.Lock()
	defer diskStores.mu.Unlock()
	var total diskcache.Stats
	for _, s := range diskStores.stores {
		if s == nil {
			continue
		}
		st := s.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Writes += st.Writes
		total.Corrupt += st.Corrupt
		total.Stale += st.Stale
		total.Evictions += st.Evictions
		total.ReadErrors += st.ReadErrors
		total.WriteErrors += st.WriteErrors
		total.Retries += st.Retries
	}
	return total, diskStores.openErr
}

// cacheKeyFormat versions the cache-key derivation. It is separate
// from diskcache.FormatVersion, which versions the entry bytes: an
// encoding change bumps only the latter, so the entries an older
// encoding wrote sit under the same keys and are found, rejected as
// stale, and rewritten in place rather than orphaned. Bump this only
// when the key derivation itself changes (TestCacheKeyGolden pins it).
const cacheKeyFormat = 1

// cacheKey hashes the complete simulation input. Options.Benchmarks
// and Options.Schemes are deliberately excluded: they select which
// runs happen, not what any individual run computes — a cell simulated
// for a subset matrix must hit the same warm disk-cache entry as the
// full sweep. CacheDir/CacheMaxBytes are excluded for the same reason
// — they say where results are stored, not what they are. The scheme
// enters the key as its registry name only (the struct below is part
// of the byte-stability contract; see TestCacheKeyGolden), so a
// registry refactor must never reorder or retype these fields.
// MutateAdaptive is a function and cannot be hashed directly; it is
// canonicalized by its observable effect — the controller
// configuration it produces from each domain's default. The Format
// field versions the key itself: bumping cacheKeyFormat orphans every
// existing on-disk entry at once. opt must already have defaults
// applied.
func cacheKey(prof trace.Profile, scheme Scheme, opt Options) ([sha256.Size]byte, error) {
	if opt.chipMode() {
		// Chip-mode cells key on the chip shape as well — core count,
		// power budget, governor, gain — in a disjoint keyspace (see
		// chipCacheKey). The default single-core options never take
		// this branch, so the legacy key bytes are untouched.
		return chipCacheKey(chipProfiles(prof, opt), scheme, opt)
	}
	mutated := make([]control.Config, isa.NumExecDomains)
	for d := 0; d < isa.NumExecDomains; d++ {
		cfg := control.DefaultConfig(isa.ExecDomain(d))
		if opt.MutateAdaptive != nil {
			opt.MutateAdaptive(&cfg)
		}
		mutated[d] = cfg
	}
	key := struct {
		Format           int
		Profile          trace.Profile
		Scheme           Scheme
		Instructions     int64
		Seed             int64
		PIDIntervalTicks int
		Machine          mcd.Config
		Adaptive         []control.Config
	}{
		Format:           cacheKeyFormat,
		Profile:          prof,
		Scheme:           scheme,
		Instructions:     opt.Instructions,
		Seed:             opt.Seed,
		PIDIntervalTicks: opt.PIDIntervalTicks,
		Machine:          opt.machine(),
		Adaptive:         mutated,
	}
	blob, err := json.Marshal(&key)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("experiment: cache key: %w", err)
	}
	return sha256.Sum256(blob), nil
}

// cachedRun returns the memoized result for (prof, scheme, opt) or
// simulates it via run. Exactly one caller simulates a given key; any
// concurrent callers block on its completion and share the outcome.
// ctx gates only this attempt's disk probe — a cancelled context
// falls straight through to run, whose own machinery honors it.
func cachedRun(ctx context.Context, prof trace.Profile, scheme Scheme, opt Options, run func() (*mcd.Result, error)) (*mcd.Result, error) {
	resultCache.mu.Lock()
	if !resultCache.enabled {
		resultCache.mu.Unlock()
		return run()
	}
	k, err := cacheKey(prof, scheme, opt)
	if err != nil {
		resultCache.mu.Unlock()
		return nil, err
	}
	if e, ok := resultCache.entries[k]; ok {
		resultCache.hits++
		resultCache.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	resultCache.entries[k] = e
	resultCache.misses++
	resultCache.mu.Unlock()

	store := diskStore(opt)
	func() {
		// Close even if run panics so waiters are not stranded; the
		// panic still propagates to this (first) caller.
		defer close(e.done)
		if store != nil && ctx.Err() == nil {
			var res mcd.Result
			if derr := store.Get(k, &res); derr == nil {
				e.res = &res
				return
			}
			// Any disk failure — miss, corruption, version mismatch —
			// falls back to simulation; Get already healed bad entries.
		}
		e.res, e.err = run()
		if e.err == nil && store != nil {
			// Persist only clean results. A write failure costs the
			// persistence of this one cell, not the run.
			store.Put(k, e.res) //nolint:errcheck // cache write is best-effort
		}
	}()
	if e.err != nil && transientErr(e.err) {
		// A timeout or cancellation says nothing about the simulation
		// itself — evict so a later call with a fresh context re-runs
		// instead of replaying the stale failure. Waiters already
		// parked on e.done still see this attempt's error.
		resultCache.mu.Lock()
		if resultCache.entries[k] == e {
			delete(resultCache.entries, k)
		}
		resultCache.mu.Unlock()
	}
	return e.res, e.err
}
