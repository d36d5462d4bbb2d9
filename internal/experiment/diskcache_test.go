package experiment

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// diskOpt is smallOpt with the persistent cache rooted in a fresh
// per-test directory.
func diskOpt(t *testing.T) Options {
	t.Helper()
	opt := smallOpt()
	opt.CacheDir = t.TempDir()
	return opt
}

// entryCount returns how many published cache entries dir holds.
func entryCount(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestDiskCacheServesAcrossReset asserts the persistence contract: a
// result computed before ResetCache (which models process death for
// the in-process level) is served from disk afterwards, identical to
// the simulated one.
func TestDiskCacheServesAcrossReset(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := diskOpt(t)

	before, _ := DiskCacheStats()
	cold, err := RunOne("gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := entryCount(t, opt.CacheDir); n != 1 {
		t.Fatalf("cold run published %d entries, want 1", n)
	}

	ResetCache() // drop the in-process level; disk must carry the result
	warm, err := RunOne("gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := DiskCacheStats()
	if got := after.Hits - before.Hits; got != 1 {
		t.Errorf("warm run hit disk %d times, want 1", got)
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) {
		t.Errorf("disk round trip changed metrics:\n cold %+v\n warm %+v", cold.Metrics, warm.Metrics)
	}
	if cold.IPC != warm.IPC || cold.L1DMissRate != warm.L1DMissRate {
		t.Errorf("disk round trip changed rates: cold (%v, %v) warm (%v, %v)",
			cold.IPC, cold.L1DMissRate, warm.IPC, warm.L1DMissRate)
	}
	if len(cold.QueueSamples) != len(warm.QueueSamples) {
		t.Errorf("disk round trip changed sample count: %d vs %d",
			len(cold.QueueSamples), len(warm.QueueSamples))
	}
}

// TestDiskCacheMatrixWarmRun asserts a full matrix re-rendered after a
// simulated restart is served entirely from disk and metric-identical.
func TestDiskCacheMatrixWarmRun(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := diskOpt(t)

	cold, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(opt.Benchmarks) * (1 + len(ControlledSchemes()))
	if n := entryCount(t, opt.CacheDir); n != cells {
		t.Fatalf("cold matrix published %d entries, want %d", n, cells)
	}

	ResetCache()
	before, _ := DiskCacheStats()
	warm, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := DiskCacheStats()
	if got := after.Hits - before.Hits; got != uint64(cells) {
		t.Errorf("warm matrix hit disk %d times, want %d (every cell)", got, cells)
	}
	for _, b := range opt.Benchmarks {
		for s, want := range cold.Results[b] {
			got := warm.Results[b][s]
			if got == nil {
				t.Fatalf("%s/%s missing from warm matrix", b, s)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s/%s metrics differ after disk round trip", b, s)
			}
		}
	}
}

// TestDiskCacheCorruptEntryResimulates asserts the harness treats a
// damaged entry as a miss: the cell re-simulates, produces the same
// result, and heals the entry on disk.
func TestDiskCacheCorruptEntryResimulates(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := diskOpt(t)

	cold, err := RunOne("gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(opt.CacheDir, "*.res"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want one entry, got %v (err %v)", matches, err)
	}
	blob, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(matches[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetCache()
	warm, err := RunOne("gzip", SchemeAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) {
		t.Error("re-simulation after corruption produced different metrics")
	}
	if n := entryCount(t, opt.CacheDir); n != 1 {
		t.Errorf("corrupt entry was not healed: %d entries on disk", n)
	}
}

// TestDiskCacheMigratesV1Entry asserts an entry written by the
// gob-encoded v1 store self-heals under the current one. The fixture
// is a genuine v1 entry for gzip/adaptive at smallOpt, written by the
// last gob-based build; the cache key did not change with the
// encoding, so it sits where the current harness looks. A warm render
// must count it stale, re-simulate that one cell, rewrite it at the
// current FormatVersion, and render the same bytes as the cold run.
func TestDiskCacheMigratesV1Entry(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := diskOpt(t)
	ctx := context.Background()

	cold, _, err := RenderArtifactContext(ctx, "fig9", FormatJSON, opt)
	if err != nil {
		t.Fatal(err)
	}

	prof, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	k, err := cacheKey(prof, SchemeAdaptive, opt.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opt.CacheDir, hex.EncodeToString(k[:])+".res")
	f, err := os.Open(filepath.Join("testdata", "v1-gzip-adaptive.res.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(v1[4:8]); v != 1 || !bytes.Contains(v1, []byte("QueueSamples")) {
		t.Fatalf("fixture is not a v1 gob entry (header version %d)", v)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetCache()
	before, _ := DiskCacheStats()
	warm, _, err := RenderArtifactContext(ctx, "fig9", FormatJSON, opt)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := DiskCacheStats()
	cells := uint64(len(opt.Benchmarks) * (1 + len(ControlledSchemes())))
	if got := after.Stale - before.Stale; got != 1 {
		t.Errorf("v1 entry counted stale %d times, want 1", got)
	}
	if hits, writes := after.Hits-before.Hits, after.Writes-before.Writes; hits != cells-1 || writes != 1 {
		t.Errorf("warm render: %d hits, %d writes; want %d hits and the one stale cell re-simulated and rewritten",
			hits, writes, cells-1)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("render after migrating the v1 entry differs from the cold render")
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("stale entry was not rewritten: %v", err)
	}
	if v := binary.LittleEndian.Uint32(blob[4:8]); v != diskcache.FormatVersion {
		t.Errorf("rewritten entry is v%d, want v%d", v, diskcache.FormatVersion)
	}
	store, err := diskcache.Open(opt.CacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var res mcd.Result
	if err := store.Get(k, &res); err != nil {
		t.Fatalf("rewritten entry does not decode: %v", err)
	}
	if res.Benchmark != "gzip" || res.Scheme != string(SchemeAdaptive) {
		t.Errorf("rewritten entry holds %s/%s", res.Benchmark, res.Scheme)
	}
}

// TestDiskCacheSkipsTransientErrors asserts a timed-out run persists
// nothing: the next attempt with a saner deadline must actually
// simulate, not replay the failure from disk.
func TestDiskCacheSkipsTransientErrors(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := diskOpt(t)
	opt.Timeout = time.Nanosecond

	_, err := RunOne("gzip", SchemeAdaptive, opt)
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("nanosecond budget did not time out: %v", err)
	}
	if n := entryCount(t, opt.CacheDir); n != 0 {
		t.Fatalf("transient failure persisted %d entries, want 0", n)
	}

	opt.Timeout = time.Minute
	if _, err := RunOne("gzip", SchemeAdaptive, opt); err != nil {
		t.Fatalf("run after transient failure: %v", err)
	}
	if n := entryCount(t, opt.CacheDir); n != 1 {
		t.Errorf("clean retry published %d entries, want 1", n)
	}
}

// TestDiskCacheUnusableDirDegrades asserts a cache directory that
// cannot be created costs persistence, never correctness: runs fall
// back to simulation and succeed.
func TestDiskCacheUnusableDirDegrades(t *testing.T) {
	defer func() { SetCaching(true); ResetCache() }()
	SetCaching(true)
	ResetCache()
	opt := smallOpt()
	// A regular file where the directory should go: MkdirAll fails.
	block := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(block, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt.CacheDir = block

	if _, err := RunOne("gzip", SchemeAdaptive, opt); err != nil {
		t.Fatalf("run with unusable cache dir failed: %v", err)
	}
	if _, err := DiskCacheStats(); err == nil {
		t.Error("DiskCacheStats does not surface the open failure")
	}
}

// TestTraceSharingTransparent asserts shared-trace replay is
// semantics-free: a matrix computed from per-cell generators and one
// computed from shared recordings are metric-identical, cell for cell.
func TestTraceSharingTransparent(t *testing.T) {
	defer func() {
		SetCaching(true)
		SetTraceSharing(true)
		ResetCache()
	}()
	opt := smallOpt()
	SetCaching(false) // force every cell to simulate on both sides

	SetTraceSharing(false)
	perCell, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}
	SetTraceSharing(true)
	shared, err := RunMatrix(opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range opt.Benchmarks {
		for s, want := range perCell.Results[b] {
			got := shared.Results[b][s]
			if got == nil {
				t.Fatalf("%s/%s missing from shared-trace matrix", b, s)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s/%s metrics differ under trace sharing:\n per-cell %+v\n shared   %+v",
					b, s, want.Metrics, got.Metrics)
			}
			if want.IPC != got.IPC {
				t.Errorf("%s/%s IPC differs under trace sharing: %v vs %v", b, s, want.IPC, got.IPC)
			}
		}
	}
}
