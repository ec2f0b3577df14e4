package modem

import "repro/internal/dsp"

// gardnerRecover is closed-loop symbol timing recovery around the
// Gardner timing error detector for BPSK/QPSK sampled receivers [5]: it
// runs the loop from rest (gains kp 0.05, ki 0.0005 acquire within a few
// hundred symbols) over matched-filtered samples at 2 samples/symbol and
// returns one symbol-rate strobe per symbol by cubic interpolation. The
// detector
//
//	e(k) = Re{ (y(k) - y(k-1)) * conj(y(k-1/2)) }
//
// is rotation-invariant, so the loop runs before carrier recovery — the
// property that makes it the paper's choice for continuous or long-burst
// TDMA streams.
func gardnerRecover(in dsp.Vec, kp, ki float64) dsp.Vec {
	var f dsp.Farrow
	var out dsp.Vec
	var prev complex128
	pos, vel := 3.0, 0.0 // next strobe position; integrator state (rate correction)
	for pos+2 < float64(len(in)-2) {
		mid := f.InterpAt(in, pos-1) // half-symbol before the strobe
		cur := f.InterpAt(in, pos)
		if len(out) > 0 {
			// e > 0 when the strobe lies after the symbol optimum, so
			// the correction is subtracted from the strobe advance,
			// clamped to half a sample per strobe so acquisition
			// transients cannot skip symbols.
			e := GardnerError(prev, mid, cur)
			vel += ki * e
			pos += 2 - min(max(kp*e+vel, -0.5), 0.5)
		} else {
			pos += 2
		}
		out = append(out, cur)
		prev = cur
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
