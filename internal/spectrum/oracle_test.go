package spectrum

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mcddvfs/internal/stats"
)

// The reference estimator below is the original, unplanned code: a
// fresh FFT per taper that recomputes every stage's twiddles per block,
// and tapers rebuilt per series. The planned estimator must reproduce
// its Power bins bit for bit, because rendered artifacts (fig8.svg)
// print them at full precision.

func refFFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		out[bits.Reverse64(uint64(i))>>shift] = x[i]
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		ang := -2.0 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return out
}

func refSineTapers(n, k int) [][]float64 {
	out := make([][]float64, k)
	norm := math.Sqrt(2 / float64(n+1))
	for i := 0; i < k; i++ {
		w := make([]float64, n)
		for t := 0; t < n; t++ {
			w[t] = norm * math.Sin(math.Pi*float64(i+1)*float64(t+1)/float64(n+1))
		}
		out[i] = w
	}
	return out
}

func refEstimate(x []float64, k int, taper bool) (*Spectrum, error) {
	n := len(x)
	if n < 8 {
		return nil, fmt.Errorf("spectrum: series too short (%d samples)", n)
	}
	d := stats.Detrend(x)
	nfft := NextPow2(n)
	half := nfft / 2
	power := make([]float64, half+1)

	buf := make([]complex128, nfft)
	accumulate := func(w []float64, scale float64) {
		for i := range buf {
			buf[i] = 0
		}
		for t := 0; t < n; t++ {
			v := d[t]
			if w != nil {
				v *= w[t]
			}
			buf[t] = complex(v, 0)
		}
		X := refFFT(buf)
		for j := 1; j <= half; j++ {
			p := real(X[j])*real(X[j]) + imag(X[j])*imag(X[j])
			if j != half {
				p *= 2
			}
			power[j] += p * scale
		}
	}
	if !taper {
		accumulate(nil, 1/(float64(nfft)*float64(n)))
	} else {
		for _, w := range refSineTapers(n, k) {
			accumulate(w, 1/(float64(nfft)*float64(k)))
		}
	}
	return &Spectrum{Power: power, N: n, NFFT: nfft}, nil
}

// ReferenceClassify is Classify computed with the reference estimator;
// the external test package compares experiment.ClassifyBenchmarks
// against it.
func ReferenceClassify(x []float64, intervalSamples, threshold float64) (Classification, error) {
	s, err := refEstimate(x, classifyTapers, true)
	if err != nil {
		return Classification{}, err
	}
	share := s.FastShare(DefaultNoiseSamples, intervalSamples)
	return Classification{
		ShortShare:    share,
		TotalVariance: s.BandVariance(DefaultNoiseSamples, math.Inf(1)),
		Fast:          share > threshold,
	}, nil
}

func requireSameBits(t *testing.T, label string, got, want *Spectrum) {
	t.Helper()
	if got.N != want.N || got.NFFT != want.NFFT || len(got.Power) != len(want.Power) {
		t.Fatalf("%s: shape N=%d NFFT=%d bins=%d, want N=%d NFFT=%d bins=%d", label,
			got.N, got.NFFT, len(got.Power), want.N, want.NFFT, len(want.Power))
	}
	for j := range got.Power {
		if math.Float64bits(got.Power[j]) != math.Float64bits(want.Power[j]) {
			t.Fatalf("%s: bin %d = %v (%#x), reference %v (%#x)", label, j,
				got.Power[j], math.Float64bits(got.Power[j]), want.Power[j], math.Float64bits(want.Power[j]))
		}
	}
}

// checkAgainstReference compares Periodogram and Multitaper (k = 1..6)
// with the reference estimator on x.
func checkAgainstReference(t *testing.T, label string, x []float64) {
	t.Helper()
	got, err := Periodogram(x)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refEstimate(x, 1, false)
	requireSameBits(t, label+" periodogram", got, want)
	for k := 1; k <= 6; k++ {
		got, err := Multitaper(x, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := refEstimate(x, k, true)
		requireSameBits(t, fmt.Sprintf("%s multitaper k=%d", label, k), got, want)
	}
}

// TestEstimatorBitIdenticalToReference is the bit-identity contract of
// the planned estimator: every Power bin of Periodogram and Multitaper
// equals the reference's in math.Float64bits.
func TestEstimatorBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lengths := []int{8, 9, 15, 16, 17, 1000, 10107}
	for p := 4; p <= 16; p += 3 {
		lengths = append(lengths, 1<<p, 1<<p+1)
	}
	lengths = append(lengths, 1<<16, 1<<16+1, 70001)
	for i := 0; i < 24; i++ {
		lengths = append(lengths, 8+rng.Intn(1<<14))
	}
	for _, n := range lengths {
		x := make([]float64, n)
		switch n % 3 {
		case 0: // occupancy-like: integer counts around a drifting level
			for i := range x {
				x[i] = math.Floor(8 + 6*math.Sin(float64(i)/float64(1+rng.Intn(500))) + 3*rng.NormFloat64())
			}
		default:
			for i := range x {
				x[i] = rng.NormFloat64()*rng.Float64()*10 + rng.Float64()*float64(i%97)
			}
		}
		checkAgainstReference(t, fmt.Sprintf("n=%d", n), x)
	}
}

func TestEstimatorBitIdenticalDegenerateSeries(t *testing.T) {
	for _, n := range []int{8, 64, 100, 4096, 10107} {
		zero := make([]float64, n)
		constant := make([]float64, n)
		integers := make([]float64, n)
		for i := range constant {
			constant[i] = 7
			integers[i] = float64((i*i + 3*i) % 17)
		}
		checkAgainstReference(t, fmt.Sprintf("zero n=%d", n), zero)
		checkAgainstReference(t, fmt.Sprintf("constant n=%d", n), constant)
		checkAgainstReference(t, fmt.Sprintf("integer n=%d", n), integers)
	}
}

func TestClassifyAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Mixed lengths: equal-length runs share an estimator, a length
	// change must rebuild it.
	var series [][]float64
	for _, n := range []int{3000, 3000, 3000, 513, 513, 3000} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Floor(10 + 5*math.Sin(float64(i)/40) + 2*rng.NormFloat64())
		}
		series = append(series, x)
	}
	got, err := ClassifyAll(series, DefaultIntervalSamples, DefaultFastShareThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range series {
		want, _ := ReferenceClassify(x, DefaultIntervalSamples, DefaultFastShareThreshold)
		if got[i] != want {
			t.Errorf("series %d: ClassifyAll %+v, reference %+v", i, got[i], want)
		}
		one, _ := Classify(x, DefaultIntervalSamples, DefaultFastShareThreshold)
		if one != want {
			t.Errorf("series %d: Classify %+v, reference %+v", i, one, want)
		}
	}
	if _, err := ClassifyAll([][]float64{series[0], {1, 2}}, DefaultIntervalSamples, DefaultFastShareThreshold); err == nil {
		t.Error("short series accepted")
	}
}

// TestFFTMatchesReference checks the public FFT against the reference
// transform on complex input. Values agree exactly; only the sign of a
// zero may differ (the planned transform skips multiplies by the
// twiddle 1), so the comparison is ==, not Float64bits.
func TestFFTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 32, 512, 2048, 1 << 15} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, want := FFT(x), refFFT(x)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("n=%d bin %d: %v, reference %v", n, j, got[j], want[j])
			}
		}
	}
}
