package modem

import (
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// Carrier recovery for the TDMA burst demodulator: a constant-phase
// derotator for short bursts (the blockwise feedforward tracker is
// TrackPhaseQPSKInto) and a decision-directed phase-locked loop for
// continuous operation.

// DerotateInto applies a constant phase correction of -phi to the block:
// it writes the corrected block into dst (at least len(syms) long;
// dst == syms is allowed) and returns dst[:len(syms)].
func DerotateInto(dst, syms dsp.Vec, phi float64) dsp.Vec {
	rot := cmplx.Exp(complex(0, -phi))
	dst = dst[:len(syms)]
	for i, s := range syms {
		dst[i] = s * rot
	}
	return dst
}

// CostasLoop is a decision-directed QPSK phase tracking loop for
// continuous (non-burst) operation.
type CostasLoop struct {
	kp, ki float64
	phase  float64
	freq   float64
}

// NewCostas builds a loop with the given proportional and integral gains.
func NewCostas(kp, ki float64) *CostasLoop {
	return &CostasLoop{kp: kp, ki: ki}
}

// Phase returns the current phase estimate in radians.
func (c *CostasLoop) Phase() float64 { return c.phase }

// SetPhase seeds the loop with a data-aided phase estimate (e.g. the
// burst unique-word phase), so tracking starts locked instead of pulling
// in from zero.
func (c *CostasLoop) SetPhase(phi float64) { c.phase = phi }

// Process derotates each symbol by the loop phase and updates the loop
// with the decision-directed error.
func (c *CostasLoop) Process(in dsp.Vec) dsp.Vec {
	out := dsp.NewVec(len(in))
	for i, s := range in {
		y := s * cmplx.Exp(complex(0, -c.phase))
		out[i] = y
		// Decision-directed error: angle between y and nearest QPSK point.
		d := complex(sign(real(y)), sign(imag(y)))
		e := cmplx.Phase(y * cmplx.Conj(d))
		c.freq += c.ki * e
		c.phase += c.kp*e + c.freq
		c.phase = math.Mod(c.phase, 2*math.Pi)
	}
	return out
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
