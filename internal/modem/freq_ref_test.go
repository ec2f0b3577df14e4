package modem

import "repro/internal/dsp"

// estimateFrequencyQPSKGrid is the pre-FFT reference implementation: a
// dense half-bin grid scan of the same fourth-power periodogram, the
// equivalence baseline for the spectral estimator's tests.
func estimateFrequencyQPSKGrid(syms dsp.Vec) float64 {
	if len(syms) < 2 {
		return 0
	}
	z := dsp.GetVec(len(syms))
	fourthPowerNormalize(z, syms)
	// The line sits at u = 4f cycles/sample in fourth-power units.
	// Coarse: half-bin spacing over u in [-1/2, 1/2) keeps scalloping
	// loss of an off-grid peak under 1 dB.
	n := len(z)
	coarseDu := 1 / (2 * float64(n))
	u := peakSearch(z, -0.5, coarseDu, 2*n)
	// Fine: an eighth-bin grid across the winning coarse bin pair, with
	// parabolic interpolation taking the estimate well below grid
	// resolution.
	fineDu := coarseDu / 8
	u = peakSearchParabolic(z, u-coarseDu, fineDu, 17)
	dsp.PutVec(z)
	return foldQuarterCycle(u)
}

// peakSearch grids the periodogram from u0 in steps of du and returns
// the winning frequency.
func peakSearch(z dsp.Vec, u0, du float64, bins int) float64 {
	bestU, bestP := u0, -1.0
	for k := 0; k < bins; k++ {
		u := u0 + float64(k)*du
		if p := specPower(z, u); p > bestP {
			bestP, bestU = p, u
		}
	}
	return bestU
}
