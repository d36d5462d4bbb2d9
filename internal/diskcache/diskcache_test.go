package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// payload is a test value with its own binary encoding, as every
// stored value must have: the name, then the series as raw float bits.
type payload struct {
	Name   string
	Series []float64
}

func (p payload) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(p.Name)))
	b = append(b, p.Name...)
	b = binary.AppendUvarint(b, uint64(len(p.Series)))
	for _, v := range p.Series {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

func (p *payload) UnmarshalBinary(b []byte) error {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return errors.New("bad name")
	}
	name := string(b[k : k+int(n)])
	b = b[k+int(n):]
	n, k = binary.Uvarint(b)
	if k <= 0 || n != uint64(len(b)-k)/8 || (len(b)-k)%8 != 0 {
		return errors.New("bad series")
	}
	b = b[k:]
	var series []float64
	if n > 0 {
		series = make([]float64, n)
		for i := range series {
			series[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	p.Name, p.Series = name, series
	return nil
}

func samplePayload(n int) payload {
	p := payload{Name: "gzip/adaptive", Series: make([]float64, n)}
	for i := range p.Series {
		p.Series[i] = float64(i) * 0.3125
	}
	return p
}

func key(b byte) [sha256.Size]byte {
	var k [sha256.Size]byte
	k[0] = b
	return k
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := samplePayload(1000)
	if err := s.Put(key(1), &want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(1), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip mutated the payload:\n want %+v\n got  %+v", want, got)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 write", st)
	}
}

func TestGetMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(9), &got); !errors.Is(err, ErrMiss) {
		t.Fatalf("Get on empty store = %v, want ErrMiss", err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss", st)
	}
}

// entryFile returns the single *.res file in the store directory.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry file, got %v (err %v)", matches, err)
	}
	return matches[0]
}

// TestCorruptEntryFallsBack asserts a bit-flipped payload fails its
// checksum, reports ErrCorrupt, and is deleted so the slot heals.
func TestCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := samplePayload(64)
	if err := s.Put(key(2), &want); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-3] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var got payload
	if err := s.Get(key(2), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt entry = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry was not deleted")
	}
	// The slot works again after a rewrite.
	if err := s.Put(key(2), &want); err != nil {
		t.Fatal(err)
	}
	if err := s.Get(key(2), &got); err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %+v, want 1 corrupt", st)
	}
}

// TestTruncatedEntryFallsBack covers the torn-write crash shape.
func TestTruncatedEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(3), samplePayload(128)); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	if err := os.Truncate(path, headerSize+5); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(3), &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on truncated entry = %v, want ErrCorrupt", err)
	}
}

// TestVersionMismatchFallsBack asserts an entry stamped with a foreign
// FormatVersion misses with ErrVersionMismatch and is deleted.
func TestVersionMismatchFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(4), samplePayload(16)); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[4:8], FormatVersion+1)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(4), &got); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Get on future-version entry = %v, want ErrVersionMismatch", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale-version entry was not deleted")
	}
	if st := s.Stats(); st.Stale != 1 {
		t.Errorf("stats = %+v, want 1 stale", st)
	}
}

// TestConcurrentWritersSameKey asserts racing writers of one key leave
// exactly one complete, decodable entry (atomic rename publication).
func TestConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := samplePayload(2048)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Put(key(5), &want); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var got payload
	if err := s.Get(key(5), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("entry torn by concurrent writers")
	}
	entryFile(t, dir) // asserts exactly one entry and no leaked temp files beyond tmp-* cleanup
	leftovers, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(leftovers) != 0 {
		t.Errorf("leaked temp files: %v", leftovers)
	}
}

// TestGCEvictsOldestFirst asserts the size cap is enforced in
// LRU-by-mtime order: the untouched oldest entries go first and the
// most recently used survive.
func TestGCEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Four ~300 KB entries against a 1 MiB cap: at most 3 fit.
	base := time.Now().Add(-time.Hour)
	for i := byte(0); i < 4; i++ {
		if err := s.Put(key(i), samplePayload(70_000)); err != nil {
			t.Fatal(err)
		}
		// Spread mtimes a minute apart, oldest = key(0).
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.path(key(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 {
		t.Fatal("GC evicted nothing over a full cap")
	}
	var got payload
	if err := s.Get(key(0), &got); !errors.Is(err, ErrMiss) {
		t.Errorf("oldest entry survived GC (err %v)", err)
	}
	if err := s.Get(key(3), &got); err != nil {
		t.Errorf("newest entry was evicted: %v", err)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Errorf("stats = %+v, want evictions recorded", st)
	}
}

// TestGetRefreshesMtime asserts a served entry is touched, so a hit
// protects an old entry from the next GC pass.
func TestGetRefreshesMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(6), samplePayload(8)); err != nil {
		t.Fatal(err)
	}
	path := s.path(key(6))
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := s.Get(key(6), &got); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.ModTime().Before(old.Add(time.Hour)) {
		t.Error("Get did not refresh the entry mtime")
	}
}

// TestOpenRunsInitialGC asserts a directory inherited over the cap is
// bounded at Open.
func TestOpenRunsInitialGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 6; i++ {
		if err := s.Put(key(i), samplePayload(70_000)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	var total int64
	for _, m := range matches {
		info, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > 1<<20 {
		t.Errorf("store holds %d bytes after re-Open, cap is %d", total, 1<<20)
	}
	_ = s2
}

// TestGetReusesReadBuffers is the allocation regression test for the
// warm hit path: once the blob pool is warm, repeated Gets of a
// multi-megabyte entry must not re-allocate the read buffer. The
// decoded value's own storage (the Series slice) is a real cost of
// returning data and is excluded by measuring total heap bytes against
// a budget of 1.25x the decoded size — the value plus slack for small
// allocations, with no room for a second copy of the payload.
func TestGetReusesReadBuffers(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000 // 1.6 MB of series data per entry
	if err := s.Put(key(1), samplePayload(n)); err != nil {
		t.Fatal(err)
	}

	const rounds = 16
	var before, after runtime.MemStats
	runtime.GC()
	// Warm the pool after the GC: a collection demotes pooled buffers
	// to the victim cache, where only the P that pooled one can reuse
	// it.
	var got payload
	if err := s.Get(key(1), &got); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		var v payload
		if err := s.Get(key(1), &v); err != nil {
			t.Fatal(err)
		}
		if len(v.Series) != n {
			t.Fatalf("decoded %d samples, want %d", len(v.Series), n)
		}
	}
	runtime.ReadMemStats(&after)

	perGet := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	decoded := int64(n * 8)
	// A warm Get pays for the decoded value itself and nothing of
	// entry size besides: the pooled blob is reused and UnmarshalBinary
	// decodes straight out of it. A decoder that copies the payload
	// first fails here: gob's per-Decoder message buffer measured 1.6x;
	// an unpooled read buffer adds a further 1x.
	budget := decoded + decoded/4
	if raceEnabled {
		// The race detector's pool drops about one read buffer in four,
		// each costing a fresh entry-sized blob on the next Get.
		budget = 2 * decoded
	}
	if perGet > budget {
		t.Errorf("warm Get allocates %d B/op, budget %d (decoded payload is %d)",
			perGet, budget, decoded)
	}
}
