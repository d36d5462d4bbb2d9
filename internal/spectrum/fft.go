// Package spectrum implements the spectral analysis of Section 5.2: a
// radix-2 FFT, periodogram and sine-taper multitaper spectral
// estimators for queue-occupancy time series, variance-by-wavelength
// integration, and the paper's classifier that flags benchmarks with
// fast workload variations (variance concentrated at wavelengths
// shorter than the fixed DVFS interval).
package spectrum

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-order discrete Fourier transform of x using an
// iterative radix-2 Cooley-Tukey algorithm. len(x) must be a power of
// two. The input is not modified.
func FFT(x []complex128) []complex128 { return fftDir(x, false) }

// IFFT computes the inverse DFT (with 1/N normalization).
func IFFT(x []complex128) []complex128 {
	out := fftDir(x, true)
	n := complex(float64(len(x)), 0)
	for i := range out {
		out[i] /= n
	}
	return out
}

func fftDir(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	p := newPlan(n, inverse)
	for j, i := range p.rev {
		p.buf[j] = x[i]
	}
	p.transform()
	return p.buf
}

// plan is a reusable radix-2 transform of one power-of-two length.
//
// Its arithmetic is the textbook iterative Cooley-Tukey loop, operation
// for operation, so spectra stay bit-identical to it: each stage's
// twiddles come from the loop's w *= wStep recurrence, run once per
// stage and tabulated, every butterfly is b := hi*w; lo, hi = lo+b,
// lo-b, and each element meets its butterflies in stage order. Only
// the multiply by the exact twiddle 1 is skipped; that can flip the sign
// of a zero but never changes a nonzero value, and squaring erases it.
type plan struct {
	rev []uint32       // rev[j] = bit reversal of j: input j lands at buf[rev[j]]
	tw  [][]complex128 // tw[s] holds the 2^s twiddles of stage size 2^(s+1)
	buf []complex128   // the transform, computed in place
}

func newPlan(n int, inverse bool) *plan {
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("spectrum: FFT length %d is not a power of two", n))
	}
	stages := bits.TrailingZeros(uint(n))
	p := &plan{rev: make([]uint32, n), tw: make([][]complex128, stages), buf: make([]complex128, n)}
	shift := 64 - uint(stages)
	for j := range p.rev {
		p.rev[j] = uint32(bits.Reverse64(uint64(j)) >> shift)
	}
	sign := -2.0 // forward: e^{-i2πjk/N}
	if inverse {
		sign = 2.0
	}
	table := make([]complex128, n) // stage s uses entries [2^s-1, 2^(s+1)-1)
	for s := range p.tw {
		half := 1 << s
		ang := sign * math.Pi / float64(2*half)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		tw := table[half-1 : 2*half-1]
		w := complex(1, 0)
		for k := range tw {
			tw[k] = w
			w *= wStep
		}
		p.tw[s] = tw
	}
	return p
}

// transform runs every butterfly stage over buf, which must already
// hold the input in bit-reversed order. Stages run in pairs, one pass
// over memory per pair; an odd stage count starts with the size-2
// stage on its own, whose only twiddle is 1.
func (p *plan) transform() {
	buf := p.buf
	s := 0
	if len(p.tw)%2 == 1 {
		for i := 0; i < len(buf); i += 2 {
			a, b := buf[i], buf[i+1]
			buf[i], buf[i+1] = a+b, a-b
		}
		s = 1
	}
	for ; s < len(p.tw); s += 2 {
		p.stagePair(p.tw[s], p.tw[s+1])
	}
}

// stagePair applies the stage with twiddles tw1 (half h) and the next
// stage (twiddles tw2, half 2h) in one pass: each 4h-element block
// holds two first-stage blocks, and the second stage reads back only
// what those produced, so the four elements k, k+h, k+2h, k+3h can be
// carried through both stages in registers.
func (p *plan) stagePair(tw1, tw2 []complex128) {
	h := len(tw1)
	tw2lo, tw2hi := tw2[:h], tw2[h:][:h]
	for start := 0; start < len(p.buf); start += 4 * h {
		q0 := p.buf[start:][:h]
		q1 := p.buf[start+h:][:h]
		q2 := p.buf[start+2*h:][:h]
		q3 := p.buf[start+3*h:][:h]
		// k = 0: tw1[0] = tw2[0] = 1.
		a0, a1, a2, a3 := q0[0], q1[0], q2[0], q3[0]
		a0, a1 = a0+a1, a0-a1
		a2, a3 = a2+a3, a2-a3
		a0, a2 = a0+a2, a0-a2
		b := a3 * tw2hi[0]
		a1, a3 = a1+b, a1-b
		q0[0], q1[0], q2[0], q3[0] = a0, a1, a2, a3
		for k := 1; k < h; k++ {
			w := tw1[k]
			a0, a1, a2, a3 := q0[k], q1[k], q2[k], q3[k]
			b := a1 * w
			a0, a1 = a0+b, a0-b
			b = a3 * w
			a2, a3 = a2+b, a2-b
			b = a2 * tw2lo[k]
			a0, a2 = a0+b, a0-b
			b = a3 * tw2hi[k]
			a1, a3 = a1+b, a1-b
			q0[k], q1[k], q2[k], q3[k] = a0, a1, a2, a3
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
