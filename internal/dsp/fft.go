package dsp

import (
	"math"
	"sync"
)

// Iterative radix-2 complex FFT with precomputed per-size plans, the
// transform under the demodulator's spectral frequency search
// (modem.EstimateFrequencyQPSK's zero-padded periodogram). Plans are
// immutable after construction and shared process-wide, so any number
// of concurrent callers transform without locking or allocating.

// fftPlan holds the precomputed tables for one transform size: the
// bit-reversal permutation and the forward twiddle factors e^{-2πik/n}
// for k in [0, n/2).
type fftPlan struct {
	rev []int32 // bit-reversal permutation
	tw  Vec     // forward twiddles, n/2 entries
}

var fftPlans sync.Map // int -> *fftPlan

// planFFT returns the shared plan for size n (a power of two >= 1),
// building and caching it on first use.
func planFFT(n int) *fftPlan {
	if n <= 0 || n&(n-1) != 0 {
		panic("dsp: FFT size must be a power of two")
	}
	if p, ok := fftPlans.Load(n); ok {
		return p.(*fftPlan)
	}
	p := &fftPlan{rev: make([]int32, n), tw: make(Vec, n/2)}
	// Bit-reversal permutation by incremental construction:
	// rev[i] = rev[i>>1]>>1 | (i&1)<<(log2n-1).
	log2n := 0
	for 1<<log2n < n {
		log2n++
	}
	for i := 1; i < n; i++ {
		p.rev[i] = p.rev[i>>1]>>1 | int32(i&1)<<(log2n-1)
	}
	for k := 0; k < n/2; k++ {
		ph := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ph), math.Sin(ph))
	}
	actual, _ := fftPlans.LoadOrStore(n, p)
	return actual.(*fftPlan)
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFTForward computes the in-order forward DFT of src into dst (both of
// power-of-two length n; dst may alias src). It allocates nothing beyond
// the shared per-size plan built on first use.
func FFTForward(dst, src Vec) {
	n := len(src)
	if len(dst) != n {
		panic("dsp: FFT dst/src length mismatch")
	}
	p := planFFT(n)
	// Bit-reversal reorder into dst. When dst aliases src the swap form
	// is required; when distinct, a gather copy suffices.
	if &dst[0] == &src[0] {
		for i, r := range p.rev {
			if int32(i) < r {
				dst[i], dst[r] = dst[r], dst[i]
			}
		}
	} else {
		for i, r := range p.rev {
			dst[i] = src[r]
		}
	}
	// Iterative Cooley-Tukey butterflies. Twiddle for butterfly j at
	// stage size is tw[j*(n/size)].
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			tk := 0
			for j := base; j < base+half; j++ {
				t := p.tw[tk] * dst[j+half]
				u := dst[j]
				dst[j] = u + t
				dst[j+half] = u - t
				tk += step
			}
		}
	}
}
