package modem

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"repro/internal/dsp"
)

// OerderMeyr implements the digital filter and square timing recovery of
// Oerder and Meyr [6]: a feedforward, non-data-aided estimator that squares
// the magnitude of the oversampled matched-filter output and reads the
// symbol-timing phase off the spectral line at the symbol rate. Because it
// needs no acquisition transient it is the paper's choice for short TDMA
// bursts; it requires at least 4 samples per symbol.
type OerderMeyr struct {
	sps int
	rot *atomic.Pointer[[]complex128] // this sps's entry of rotatorTables
}

// rotatorTables holds, per oversampling factor, one read-only table of
// the rotators exp(-j 2 pi k / sps) shared by every estimator. A table
// is never written after it is published: a longer block builds a longer
// table under rotatorMu and swaps it in, so readers take no lock.
var (
	rotatorMu     sync.Mutex
	rotatorTables sync.Map // int -> *atomic.Pointer[[]complex128]
)

// NewOerderMeyr creates an estimator for the given oversampling factor
// (must be >= 4 for an unaliased symbol-rate line).
func NewOerderMeyr(sps int) *OerderMeyr {
	if sps < 4 {
		panic("modem: Oerder-Meyr requires at least 4 samples per symbol")
	}
	rot, _ := rotatorTables.LoadOrStore(sps, new(atomic.Pointer[[]complex128]))
	return &OerderMeyr{sps: sps, rot: rot.(*atomic.Pointer[[]complex128])}
}

// rotators returns the first n rotators, publishing a longer table when
// n exceeds the shared one. Each entry takes its phase from the
// expression the single-bin Fourier coefficient always used, so the
// estimate is the same bit for bit as evaluating cos and sin per sample.
func (o *OerderMeyr) rotators(n int) []complex128 {
	t := o.rot.Load()
	if t == nil || len(*t) < n {
		rotatorMu.Lock()
		if t = o.rot.Load(); t == nil || len(*t) < n {
			f := 1 / float64(o.sps)
			tab := make([]complex128, n)
			for k := range tab {
				ph := -2 * math.Pi * f * float64(k)
				tab[k] = complex(math.Cos(ph), math.Sin(ph))
			}
			t = &tab
			o.rot.Store(t)
		}
		rotatorMu.Unlock()
	}
	return (*t)[:n]
}

// EstimateOffset returns the fractional symbol timing offset in samples,
// in [-sps/2, sps/2), estimated over the whole block: the phase of the
// squared magnitude's Fourier coefficient at the symbol rate.
func (o *OerderMeyr) EstimateOffset(in dsp.Vec) float64 {
	rot := o.rotators(len(in))
	var c complex128
	for i, s := range in {
		v := real(s)*real(s) + imag(s)*imag(s)
		c += complex(v*real(rot[i]), v*imag(rot[i]))
	}
	// tau = -T/(2 pi) * arg(C), expressed in samples.
	return -float64(o.sps) / (2 * math.Pi) * cmplx.Phase(c)
}

// MaxSymbols bounds the symbol count RecoverInto can emit for an n-sample
// block (the strobe count depends on the estimated offset; this is the
// offset-independent upper bound callers size buffers with).
func (o *OerderMeyr) MaxSymbols(n int) int {
	if n <= 0 {
		return 0
	}
	return (n-1)/o.sps + 1
}

// RecoverInto estimates the timing offset and interpolates the
// symbol-rate strobes from the block into dst (at least
// MaxSymbols(len(in)) long), returning the filled prefix and the offset
// used.
func (o *OerderMeyr) RecoverInto(dst dsp.Vec, in dsp.Vec) (dsp.Vec, float64) {
	tau := o.EstimateOffset(in)
	start := tau
	for start < 0 {
		start += float64(o.sps)
	}
	var f dsp.Farrow
	n := 0
	for pos := start; pos <= float64(len(in)-1); pos += float64(o.sps) {
		dst[n] = f.InterpAt(in, pos)
		n++
	}
	return dst[:n], tau
}
