package modem

import (
	"math"
	"math/cmplx"

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
	sq  []float64 // scratch: squared magnitudes, reused across calls
}

// NewOerderMeyr creates an estimator for the given oversampling factor
// (must be >= 4 for an unaliased symbol-rate line).
func NewOerderMeyr(sps int) *OerderMeyr {
	if sps < 4 {
		panic("modem: Oerder-Meyr requires at least 4 samples per symbol")
	}
	return &OerderMeyr{sps: sps}
}

// EstimateOffset returns the fractional symbol timing offset in samples,
// in [-sps/2, sps/2), estimated over the whole block. The squared-
// magnitude scratch is instance-owned, so a recovery instance serves one
// stream at a time (like the demodulator that embeds it).
func (o *OerderMeyr) EstimateOffset(in dsp.Vec) float64 {
	if cap(o.sq) < len(in) {
		o.sq = make([]float64, len(in))
	}
	x := o.sq[:len(in)]
	for i, s := range in {
		x[i] = real(s)*real(s) + imag(s)*imag(s)
	}
	c := dsp.FourierCoefficient(x, 1/float64(o.sps))
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
