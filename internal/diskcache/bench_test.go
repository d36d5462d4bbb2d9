package diskcache_test

import (
	"crypto/sha256"
	"testing"

	"mcddvfs/internal/control"
	"mcddvfs/internal/diskcache"
	"mcddvfs/internal/isa"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/trace"
)

// BenchmarkStoreResult measures the disk tier alone on the payload it
// carries in practice: a real 25k-instruction adaptive gzip Result
// (three occupancy series and three frequency traces). Get is the
// warm-disk hit path — read, checksum, decode — and Put the cold
// path's encode, checksum, and atomic publish.
func BenchmarkStoreResult(b *testing.B) {
	cfg := mcd.DefaultConfig()
	prof, err := trace.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := trace.NewGenerator(prof, cfg.Seed+100, 25000)
	if err != nil {
		b.Fatal(err)
	}
	p, err := mcd.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for d := 0; d < isa.NumExecDomains; d++ {
		dom := isa.ExecDomain(d)
		p.Attach(dom, control.NewAdaptive(control.DefaultConfig(dom)))
	}
	res, err := p.Run(gen)
	if err != nil {
		b.Fatal(err)
	}
	s, err := diskcache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	key := sha256.Sum256([]byte("gzip/adaptive"))
	if err := s.Put(key, res); err != nil {
		b.Fatal(err)
	}

	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got mcd.Result
			if err := s.Get(key, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Put(key, res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
