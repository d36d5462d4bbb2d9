package spectrum

import (
	"fmt"
	"math"

	"mcddvfs/internal/stats"
)

// Spectrum is a one-sided variance spectrum: Power[j] is the variance
// contributed by frequency bin j (cycles per sample f_j = j/NFFT,
// j = 1..NFFT/2; the DC bin is excluded since series are detrended).
// Σ Power ≈ the series variance (Parseval).
type Spectrum struct {
	Power []float64 // indexed by bin; Power[0] is unused (DC removed)
	N     int       // original series length
	NFFT  int       // transform length (power of two, >= N)
}

// Freq returns the frequency of bin j in cycles per sample.
func (s *Spectrum) Freq(j int) float64 { return float64(j) / float64(s.NFFT) }

// Wavelength returns the period of bin j in samples.
func (s *Spectrum) Wavelength(j int) float64 {
	if j == 0 {
		return math.Inf(1)
	}
	return float64(s.NFFT) / float64(j)
}

// TotalVariance integrates the whole spectrum.
func (s *Spectrum) TotalVariance() float64 {
	sum := 0.0
	for j := 1; j < len(s.Power); j++ {
		sum += s.Power[j]
	}
	return sum
}

// BandVariance integrates the variance at wavelengths within
// [minWavelength, maxWavelength) samples.
func (s *Spectrum) BandVariance(minWavelength, maxWavelength float64) float64 {
	sum := 0.0
	for j := 1; j < len(s.Power); j++ {
		w := s.Wavelength(j)
		if w >= minWavelength && w < maxWavelength {
			sum += s.Power[j]
		}
	}
	return sum
}

// ShortWavelengthShare returns the fraction of total variance at
// wavelengths strictly shorter than the given length in samples — the
// paper's fast-workload-variation metric (Figure 8's dotted-line
// region, normalized).
func (s *Spectrum) ShortWavelengthShare(wavelength float64) float64 {
	tot := s.TotalVariance()
	if tot <= 0 {
		return 0
	}
	return s.BandVariance(0, wavelength) / tot
}

// FastShare returns the share of *workload* variance in the
// fast-variation band [noiseWavelength, intervalWavelength), relative
// to all variance above the noise floor. Occupancy series carry
// tick-level sampling noise that is white — it spreads variance across
// every bin and would otherwise dominate any short-wavelength measure;
// wavelengths below noiseWavelength are ignored because no controller
// (adaptive or fixed-interval) can act on them anyway.
func (s *Spectrum) FastShare(noiseWavelength, intervalWavelength float64) float64 {
	tot := s.BandVariance(noiseWavelength, math.Inf(1))
	if tot <= 0 {
		return 0
	}
	return s.BandVariance(noiseWavelength, intervalWavelength) / tot
}

// Periodogram estimates the variance spectrum of x with a plain
// (single-taper, boxcar) periodogram. The series is detrended and
// zero-padded to a power of two.
func Periodogram(x []float64) (*Spectrum, error) {
	return estimate(x, 1, false)
}

// Multitaper estimates the variance spectrum with k sine tapers
// (Riedel & Sidorenko), the closed-form approximation to the Thomson
// DPSS tapers the paper's Multi-taper method uses. Averaging the k
// orthogonal eigenspectra trades a small bias for a k-fold variance
// reduction of the estimate.
func Multitaper(x []float64, k int) (*Spectrum, error) {
	if k < 1 {
		return nil, fmt.Errorf("spectrum: taper count %d < 1", k)
	}
	return estimate(x, k, true)
}

func estimate(x []float64, k int, taper bool) (*Spectrum, error) {
	if err := checkLength(x); err != nil {
		return nil, err
	}
	var tapers [][]float64
	if taper {
		tapers = SineTapers(len(x), k)
	}
	return newEstimator(len(x), tapers).estimate(x), nil
}

func checkLength(x []float64) error {
	if len(x) < 8 {
		return fmt.Errorf("spectrum: series too short (%d samples)", len(x))
	}
	return nil
}

// estimator is the spectral estimator for one series length: its FFT
// plan (whose buffer every transform reuses) and its tapers are built
// once and shared by every series of that length.
type estimator struct {
	n      int
	tapers [][]float64 // nil: the boxcar periodogram
	plan   *plan
}

func newEstimator(n int, tapers [][]float64) *estimator {
	return &estimator{n: n, tapers: tapers, plan: newPlan(NextPow2(n), false)}
}

// estimate returns the spectrum of x, which must be e.n samples long.
// The series is detrended and zero-padded to the transform length.
func (e *estimator) estimate(x []float64) *Spectrum {
	d := stats.Detrend(x)
	nfft := len(e.plan.buf)
	power := make([]float64, nfft/2+1)
	if e.tapers == nil {
		// Periodogram normalization: Σ_j |X_j|²/(nfft·n) = variance.
		e.accumulate(power, d, nil, 1/(float64(nfft)*float64(e.n)))
	} else {
		for _, w := range e.tapers {
			// Unit-energy taper: Σ_j |Y_j|²/nfft = Σ_t (w_t·x_t)² ≈ var·Σw².
			e.accumulate(power, d, w, 1/(float64(nfft)*float64(len(e.tapers))))
		}
	}
	return &Spectrum{Power: power, N: e.n, NFFT: nfft}
}

// accumulate adds scale times the one-sided periodogram of the series
// d tapered by w (nil: untapered) into power.
func (e *estimator) accumulate(power, d, w []float64, scale float64) {
	buf := e.plan.buf
	// Write the tapered, zero-padded series straight into bit-reversed
	// order (the permutation is its own inverse).
	clear(buf)
	rev := e.plan.rev[:len(d)]
	for t, v := range d {
		if w != nil {
			v *= w[t]
		}
		buf[rev[t]] = complex(v, 0)
	}
	e.plan.transform()
	half := len(buf) / 2
	for j := 1; j <= half; j++ {
		p := real(buf[j])*real(buf[j]) + imag(buf[j])*imag(buf[j])
		if j != half {
			p *= 2 // fold the conjugate-symmetric half
		}
		power[j] += p * scale
	}
}

// SineTapers returns the first k sine tapers of length n, normalized to
// unit energy: w_k(t) = √(2/(n+1))·sin(π(k+1)(t+1)/(n+1)).
func SineTapers(n, k int) [][]float64 {
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

// Classification is the verdict for one benchmark's occupancy series.
type Classification struct {
	// ShortShare is the fraction of occupancy variance at wavelengths
	// shorter than the fixed-interval length.
	ShortShare float64
	// TotalVariance is the series variance captured by the spectrum.
	TotalVariance float64
	// Fast is true when ShortShare exceeds the decision threshold.
	Fast bool
}

// DefaultIntervalSamples is the fixed-interval length expressed in
// sampling periods: a 10K-instruction interval at IPC ≈ 1 and 1 GHz is
// 10 µs = 2500 periods of the 250 MHz sampling clock.
const DefaultIntervalSamples = 2500

// DefaultNoiseSamples is the noise-floor wavelength (1 µs): variations
// faster than this are sampling noise no controller acts on.
const DefaultNoiseSamples = 250

// DefaultFastShareThreshold is the decision threshold on the fast
// share. A benchmark whose sub-interval wavelengths carry more than
// this share of the workload variance swings faster than a
// fixed-interval controller can react.
const DefaultFastShareThreshold = 0.75

// classifyTapers is the taper count of the classifier's multitaper
// estimate.
const classifyTapers = 5

// Classify runs the paper's fast-workload-variation test on an
// occupancy series using the multitaper estimator with 5 tapers.
func Classify(x []float64, intervalSamples float64, threshold float64) (Classification, error) {
	c, err := ClassifyAll([][]float64{x}, intervalSamples, threshold)
	if err != nil {
		return Classification{}, err
	}
	return c[0], nil
}

// ClassifyAll classifies each series exactly as Classify would. The FFT
// plan and the sine tapers are built once per series length rather
// than once per series, so equal-length series (a benchmark's queues)
// share them.
func ClassifyAll(series [][]float64, intervalSamples float64, threshold float64) ([]Classification, error) {
	out := make([]Classification, len(series))
	var e *estimator
	for i, x := range series {
		if err := checkLength(x); err != nil {
			return nil, err
		}
		if e == nil || e.n != len(x) {
			e = newEstimator(len(x), SineTapers(len(x), classifyTapers))
		}
		s := e.estimate(x)
		share := s.FastShare(DefaultNoiseSamples, intervalSamples)
		out[i] = Classification{
			ShortShare:    share,
			TotalVariance: s.BandVariance(DefaultNoiseSamples, math.Inf(1)),
			Fast:          share > threshold,
		}
	}
	return out, nil
}
