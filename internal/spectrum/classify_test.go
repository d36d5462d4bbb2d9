package spectrum_test

import (
	"testing"

	"mcddvfs/internal/experiment"
	"mcddvfs/internal/mcd"
	"mcddvfs/internal/spectrum"
)

var queues = []string{mcd.NameInt, mcd.NameFP, mcd.NameLS}

// TestClassifyBenchmarksMatchesReference runs the Table-2 classification
// of the whole suite through experiment.ClassifyBenchmarks (one shared
// plan and taper set per benchmark) and through the reference estimator
// one queue at a time, and demands identical rows.
func TestClassifyBenchmarksMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the suite")
	}
	opt := experiment.Options{Instructions: 25000, Seed: 1}
	got, err := experiment.ClassifyBenchmarks(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range got {
		res, err := experiment.RunOne(row.Name, experiment.SchemeNone, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := experiment.BenchClass{Name: row.Name, Suite: row.Suite, IPC: res.IPC}
		for _, dom := range queues {
			samples := res.QueueSamples[dom]
			if len(samples) < 64 {
				continue
			}
			cl, err := spectrum.ReferenceClassify(samples, spectrum.DefaultIntervalSamples, spectrum.DefaultFastShareThreshold)
			if err != nil {
				t.Fatal(err)
			}
			if cl.TotalVariance >= 0.5 && cl.ShortShare > want.ShortShare {
				want.ShortShare = cl.ShortShare
			}
		}
		want.Fast = want.ShortShare > spectrum.DefaultFastShareThreshold
		if row != want {
			t.Errorf("%s: ClassifyBenchmarks %+v, reference %+v", row.Name, row, want)
		}
	}
}

// BenchmarkClassify measures the classifier on one benchmark's three
// queue-occupancy series — gzip at 25k instructions, 10 107 samples
// each, padded to a 16 384-point transform — the work
// experiment.ClassifyBenchmarks does per benchmark.
func BenchmarkClassify(b *testing.B) {
	res, err := experiment.RunOne("gzip", experiment.SchemeNone, experiment.Options{Instructions: 25000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var series [][]float64
	for _, dom := range queues {
		series = append(series, res.QueueSamples[dom])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectrum.ClassifyAll(series, spectrum.DefaultIntervalSamples, spectrum.DefaultFastShareThreshold); err != nil {
			b.Fatal(err)
		}
	}
}
