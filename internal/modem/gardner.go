package modem

import "repro/internal/dsp"

// GardnerSynchronizer is a closed-loop symbol timing recovery based on the
// Gardner timing error detector for BPSK/QPSK sampled receivers [5]. It
// consumes matched-filtered samples at 2 samples/symbol and emits one
// symbol-rate strobe per symbol using cubic interpolation. The detector
//
//	e(k) = Re{ (y(k) - y(k-1)) * conj(y(k-1/2)) }
//
// is rotation-invariant, so the loop runs before carrier recovery — the
// property that makes it the paper's choice for continuous or long-burst
// TDMA streams.
type GardnerSynchronizer struct {
	kp  float64 // proportional gain
	ki  float64 // integral gain
	vel float64 // integrator state (rate correction)

	buf        dsp.Vec // unconsumed samples
	pos        float64 // next strobe position within buf
	prevStrobe complex128
	havePrev   bool
}

// NewGardner creates a synchronizer with the given loop gains. Typical
// values: kp 0.05, ki 0.0005 for acquisition within a few hundred symbols.
func NewGardner(kp, ki float64) *GardnerSynchronizer {
	return &GardnerSynchronizer{kp: kp, ki: ki, pos: 3}
}

// Process consumes a block of 2-samples/symbol input and returns recovered
// symbol-rate strobes.
func (g *GardnerSynchronizer) Process(in dsp.Vec) dsp.Vec {
	g.buf = append(g.buf, in...)
	var f dsp.Farrow
	out := dsp.NewVec(0)

	for g.pos+2 < float64(len(g.buf)-2) {
		mid := f.InterpAt(g.buf, g.pos-1) // half-symbol before the strobe
		cur := f.InterpAt(g.buf, g.pos)
		if g.havePrev {
			// e > 0 when the strobe lies after the symbol optimum, so
			// the correction is subtracted from the strobe advance.
			e := GardnerError(g.prevStrobe, mid, cur)
			g.vel += g.ki * e
			adj := g.kp*e + g.vel
			// Clamp to half a sample per strobe so acquisition
			// transients cannot skip symbols.
			if adj > 0.5 {
				adj = 0.5
			}
			if adj < -0.5 {
				adj = -0.5
			}
			g.pos += 2 - adj
		} else {
			g.pos += 2
		}
		out = append(out, cur)
		g.prevStrobe = cur
		g.havePrev = true
	}

	// Drop consumed samples, keeping a 4-sample interpolation margin.
	drop := int(g.pos) - 4
	if drop > 0 {
		g.buf = g.buf[drop:].Clone()
		g.pos -= float64(drop)
	}
	return out
}

// GardnerError computes the raw detector output for three consecutive
// half-symbol-spaced samples (previous strobe, midpoint, current strobe) —
// exposed for property tests on the S-curve.
func GardnerError(prev, mid, cur complex128) float64 {
	return real((cur - prev) * conj(mid))
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }
