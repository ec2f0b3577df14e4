package modem

import (
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// Carrier frequency estimation for burst demodulation. A residual
// frequency offset rotates the constellation across the burst; for
// offsets beyond what the data-aided UW phase can absorb, a non-data-
// aided estimate is applied first. The estimator removes the QPSK
// modulation with a fourth power and measures the mean phase increment
// (delay-and-multiply), a standard feedforward technique for the burst
// regime the paper's MF-TDMA demodulator operates in.

// EstimateFrequencyQPSK returns the frequency offset in cycles/symbol
// estimated from symbol-rate samples, unambiguous within ±1/8
// cycle/symbol (the fourth power multiplies the rotation by 4 and is
// blind to quarter-cycle wraps, which the demodulator's unique-word
// candidate search resolves). The estimate is the peak of the
// fourth-power periodogram — the one-tone ML estimator — searched over
// the full fourth-power Nyquist interval on a half-bin grid, then
// polished on a local fine grid with parabolic interpolation. The
// global search integrates the whole sequence into every candidate
// bin, so unlike delay-and-multiply correlation stages it has no
// single statistic whose noise tail can gross-fail or alias the
// estimate at low Es/N0. Fourth-power samples are normalized to unit
// magnitude, which tames the heavy noise tails the fourth power would
// otherwise raise to the 8th power in the sums.
func EstimateFrequencyQPSK(syms dsp.Vec) float64 {
	if len(syms) < 2 {
		return 0
	}
	n := len(syms)
	// Zero-pad to at least 2n so the FFT bin width 1/nfft is no coarser
	// than the half-bin spacing 1/(2n) of the dense reference scan.
	nfft := dsp.NextPow2(2 * n)
	z, p4 := dsp.GetVec(nfft), dsp.GetVec(n)
	fourthPowerNormalize(p4, syms)
	copy(z, p4)
	clear(z[n:])
	// The line sits at u = 4f cycles/sample in fourth-power units.
	// Coarse: periodogram peak over the FFT bins; bin k measures
	// u = k/nfft (folded into [-1/2, 1/2)), identical to evaluating the
	// rotator sum at that u, at O(n log n) instead of the dense scan's
	// O(n^2).
	dsp.FFTForward(z, z)
	bestK, bestP := 0, -1.0
	for k, v := range z {
		p := real(v)*real(v) + imag(v)*imag(v)
		if p > bestP {
			bestP, bestK = p, k
		}
	}
	u := float64(bestK) / float64(nfft)
	if u >= 0.5 {
		u -= 1
	}
	coarseDu := 1 / float64(nfft)
	// Fine: an eighth-bin grid across the winning coarse bin pair, with
	// parabolic interpolation taking the estimate well below grid
	// resolution, evaluated on the fourth-power samples (kept in p4, as
	// the in-place FFT consumed z).
	u = peakSearchParabolic(p4, u-coarseDu, coarseDu/8, 17)
	dsp.PutVec(z)
	dsp.PutVec(p4)
	return foldQuarterCycle(u)
}

// fourthPowerNormalize writes the unit-magnitude fourth power of syms
// into dst[:len(syms)].
func fourthPowerNormalize(dst, syms dsp.Vec) {
	for i, s := range syms {
		p := qpow4(s)
		if m := cmplx.Abs(p); m > 0 {
			dst[i] = p * complex(1/m, 0)
		} else {
			dst[i] = 0
		}
	}
}

// foldQuarterCycle maps a fourth-power-domain frequency u to the
// quarter-cycle-ambiguous symbol-domain estimate in (-1/8, 1/8].
func foldQuarterCycle(u float64) float64 {
	f := u / 4
	if f > 0.125 {
		f -= 0.25
	}
	if f <= -0.125 {
		f += 0.25
	}
	return f
}

// specPower evaluates the fourth-power periodogram of z at u
// cycles/sample, one rotator chain.
func specPower(z dsp.Vec, u float64) float64 {
	step := cmplx.Exp(complex(0, -2*math.Pi*u))
	rot := complex(1, 0)
	var acc complex128
	for _, v := range z {
		acc += v * rot
		rot *= step
	}
	return real(acc)*real(acc) + imag(acc)*imag(acc)
}

// specPower4 evaluates the fourth-power periodogram of z at bins k..k+3
// of the grid u0 + k·du into pow: four rotator chains side by side, each
// doing what it would alone.
func specPower4(pow *[4]float64, z dsp.Vec, u0, du float64, k int) {
	step := func(j int) complex128 { return cmplx.Exp(complex(0, -2*math.Pi*(u0+float64(k+j)*du))) }
	s0, s1, s2, s3 := step(0), step(1), step(2), step(3)
	r0, r1, r2, r3 := complex(1, 0), complex(1, 0), complex(1, 0), complex(1, 0)
	var a0, a1, a2, a3 complex128
	for _, v := range z {
		a0, a1, a2, a3 = a0+v*r0, a1+v*r1, a2+v*r2, a3+v*r3
		r0, r1, r2, r3 = r0*s0, r1*s1, r2*s2, r3*s3
	}
	for j, a := range [4]complex128{a0, a1, a2, a3} {
		pow[j] = real(a)*real(a) + imag(a)*imag(a)
	}
}

// finePowers fills pow with the periodogram of z on the grid u0 + k·du:
// four bins per pass over z, then one per pass.
func finePowers(pow []float64, z dsp.Vec, u0, du float64) {
	k := 0
	for ; k+4 <= len(pow); k += 4 {
		specPower4((*[4]float64)(pow[k:]), z, u0, du, k)
	}
	for ; k < len(pow); k++ {
		pow[k] = specPower(z, u0+float64(k)*du)
	}
}

// maxFineBins bounds the fine-search grid so peakSearchParabolic can
// keep its power table on the stack (the demodulator calls it once per
// burst on the hot path).
const maxFineBins = 32

// peakSearchParabolic grids the periodogram from u0 in steps of du and
// fits a parabola through the winning bin and its neighbours (skipped at
// the grid edges), locating the peak below grid resolution.
func peakSearchParabolic(z dsp.Vec, u0, du float64, bins int) float64 {
	if bins > maxFineBins {
		panic("modem: peakSearchParabolic fine grid too large")
	}
	var powArr [maxFineBins]float64
	pow := powArr[:bins]
	finePowers(pow, z, u0, du)
	bestK, bestP := 0, -1.0
	for k, p := range pow {
		if p > bestP {
			bestP, bestK = p, k
		}
	}
	u := u0 + float64(bestK)*du
	if bestK > 0 && bestK < bins-1 {
		a, b, c := pow[bestK-1], pow[bestK], pow[bestK+1]
		if denom := a - 2*b + c; denom < 0 {
			u += du * 0.5 * (a - c) / denom
		}
	}
	return u
}

func qpow4(s complex128) complex128 {
	s2 := s * s
	return s2 * s2
}

// TrackPhaseQPSKInto derotates a QPSK payload with blockwise feedforward
// fourth-power (Viterbi&Viterbi) phase estimates. Each block's estimate
// carries a pi/2 ambiguity, resolved by unwrapping toward the previous
// block's phase, with anchor seeding the chain — for a burst, the
// data-aided unique-word phase, which pins the absolute quadrant. The
// tracker follows any residual rotation slower than pi/4 per block. It
// is far more slip-resistant than a symbol-rate decision-directed loop:
// a slip needs a whole 32-symbol block average to err by more than
// pi/4, not a run of single-symbol decisions. It is not slip-proof —
// the unwrap chains through blocks, so a block that bad rotates the
// remainder of the payload a quadrant off, which is why the chain is
// only specified down to the coded-regime Es/N0.
//
// It writes the derotated payload into out (at least len(payload) long;
// out == payload is allowed) and returns out[:len(payload)].
func TrackPhaseQPSKInto(out, payload dsp.Vec, anchor float64) dsp.Vec {
	// 32 symbols averages enough noise for a stable fourth-power
	// estimate at the coded-regime Es/N0 while keeping the phase ramp
	// within a block (residual CFO x block length) small against the
	// QPSK decision margin.
	const block = 32
	out = out[:len(payload)]
	prev := anchor
	for b := 0; b < len(payload); b += block {
		e := min(b+block, len(payload))
		var acc complex128
		for _, s := range payload[b:e] {
			p := qpow4(s)
			if m := cmplx.Abs(p); m > 0 {
				acc += p * complex(1/m, 0)
			}
		}
		th := prev
		if acc != 0 {
			// QPSK symbols sit at pi/4 + k*pi/2, so s^4 = e^{j(pi+4*phi)}:
			// the block phase is (arg - pi)/4 modulo pi/2.
			th = (cmplx.Phase(acc) - math.Pi) / 4
			th += math.Round((prev-th)/(math.Pi/2)) * (math.Pi / 2)
		}
		rot := cmplx.Exp(complex(0, -th))
		for i := b; i < e; i++ {
			out[i] = payload[i] * rot
		}
		prev = th
	}
	return out
}

// correctFrequencyInto derotates src by freq cycles/symbol into dst
// (len(dst) >= len(src)) with a single complex exponential and a
// rotator recurrence — the burst demodulator runs this once per
// unique-word candidate on its hot path.
func correctFrequencyInto(dst, src dsp.Vec, freq float64) {
	step := cmplx.Exp(complex(0, -2*math.Pi*freq))
	rot := complex(1, 0)
	for i, s := range src {
		dst[i] = s * rot
		rot *= step
	}
}
