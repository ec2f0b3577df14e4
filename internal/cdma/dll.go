package cdma

import (
	"math/cmplx"

	"repro/internal/dsp"
)

// DLL is a non-coherent early-late delay-locked loop tracking the chip
// timing of a despread CDMA signal, after the digital chip timing recovery
// loop of De Gaudenzi, Luise and Viola [8]. The input runs at an integer
// number of samples per chip; the loop maintains a fractional chip-phase
// estimate used to interpolate on-time chips.
type DLL struct {
	spc    int     // samples per chip
	delta  float64 // early/late spacing in chips (typically 0.5)
	gain   float64 // first-order loop gain
	phase  float64 // fractional timing estimate in samples, in [0, spc)
	locked bool
	farrow dsp.Farrow
}

// NewDLL creates a tracking loop for spc samples/chip with the given
// early-late half-spacing (chips) and loop gain.
func NewDLL(spc int, delta, gain float64) *DLL {
	if spc < 2 {
		panic("cdma: DLL needs at least 2 samples per chip")
	}
	if delta <= 0 || delta > 1 {
		panic("cdma: DLL delta must be in (0,1]")
	}
	return &DLL{spc: spc, delta: delta, gain: gain}
}

// Phase returns the current fractional timing estimate in samples.
func (d *DLL) Phase() float64 { return d.phase }

// SetPhase seeds the loop (e.g. from acquisition).
func (d *DLL) SetPhase(samples float64) { d.phase = samples }

// Track processes a block of received samples (spc per chip) and returns
// the on-time chip stream. The code slice gives the composite spreading
// code chip values aligned with the block start; it is used to wipe the
// code off the early/late correlations so the discriminant is data-
// independent over each symbol.
func (d *DLL) Track(rx dsp.Vec, code []int8) dsp.Vec {
	nchips := len(rx) / d.spc
	if nchips > len(code) {
		nchips = len(code)
	}
	out := dsp.NewVec(0)
	half := d.delta * float64(d.spc)
	for c := 0; c < nchips; c++ {
		centre := float64(c*d.spc) + d.phase
		if centre < 1 || centre > float64(len(rx)-3) {
			continue
		}
		on := d.farrow.InterpAt(rx, centre)
		early := d.farrow.InterpAt(rx, centre-half)
		late := d.farrow.InterpAt(rx, centre+half)
		// Code wipe-off then non-coherent early-late discriminant.
		cw := complex(float64(code[c]), 0)
		e := early * cw
		l := late * cw
		// Positive when the correlation peak lies later than the current
		// estimate, so the phase must advance.
		errTiming := cmplx.Abs(l)*cmplx.Abs(l) - cmplx.Abs(e)*cmplx.Abs(e)
		d.phase += d.gain * errTiming
		// Keep the phase in a sane window.
		if d.phase > float64(d.spc) {
			d.phase -= float64(d.spc)
		}
		if d.phase < -float64(d.spc) {
			d.phase += float64(d.spc)
		}
		out = append(out, on*cw) // code removed on output
	}
	d.locked = true
	return out
}

// SCurve evaluates the ideal discriminant |late|^2-|early|^2 for an
// isolated rectangular chip pulse whose correlation peak lies tau chips
// after the current estimate — used by property tests to verify the
// S-curve crosses zero at tau=0 with positive slope.
func (d *DLL) SCurve(tau float64) float64 {
	// Triangular chip autocorrelation R(x) = max(0, 1-|x|).
	r := func(x float64) float64 {
		if x < 0 {
			x = -x
		}
		if x >= 1 {
			return 0
		}
		return 1 - x
	}
	e := r(d.delta + tau)
	l := r(d.delta - tau)
	return l*l - e*e
}
