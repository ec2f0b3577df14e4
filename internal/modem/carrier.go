package modem

import (
	"math/cmplx"

	"repro/internal/dsp"
)

// Carrier recovery for the TDMA burst demodulator: a constant-phase
// derotator for short bursts (the blockwise feedforward tracker is
// TrackPhaseQPSKInto).

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
