package cdma

import (
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// Acquirer performs serial-search code acquisition: it slides the local
// scrambling code over the received chip stream and declares acquisition
// when the normalized correlation at some offset exceeds a threshold,
// following the signal-recognition approach of De Gaudenzi et al. [7].
// The search is non-coherent (magnitude of the partial correlation), so a
// residual carrier phase does not prevent lock.
type Acquirer struct {
	code      []int8  // composite code over the correlation window
	sf        int     // spreading factor: coherent integration length
	window    int     // correlation window length in chips
	threshold float64 // detection threshold on normalized |corr|
}

// AcquisitionResult reports the outcome of a search.
type AcquisitionResult struct {
	Detected bool
	// Offset is the chip offset of the code epoch in the searched block.
	Offset int
	// Metric is the normalized correlation magnitude at the peak.
	Metric float64
	// Tested is the number of code phases examined (complexity measure).
	Tested int
}

// NewAcquirer builds an acquirer for the given OVSF/scrambling parameters,
// correlating over window chips (longer windows raise sensitivity at the
// cost of search time). Threshold is on the normalized correlation in
// [0,1]; 0.5 is robust for Es/N0 above roughly 0 dB per symbol.
func NewAcquirer(sf, k, scr, window int, threshold float64) *Acquirer {
	if window <= 0 {
		panic("cdma: acquisition window must be positive")
	}
	if window%sf != 0 {
		panic("cdma: acquisition window must be a whole number of symbols")
	}
	ovsf := OVSF(sf, k)
	scramble := GoldSequence(scr)
	code := make([]int8, window)
	for i := range code {
		code[i] = ovsf[i%sf] * scramble[i%GoldLength]
	}
	return &Acquirer{code: code, sf: sf, window: window, threshold: threshold}
}

// Search scans chip offsets [0, maxOffset] in the received block and
// returns the best candidate. The received block must contain at least
// window+maxOffset chips.
func (a *Acquirer) Search(rx dsp.Vec, maxOffset int) AcquisitionResult {
	if len(rx) < a.window+maxOffset {
		panic("cdma: Search block too short for the requested offset range")
	}
	best := AcquisitionResult{Offset: -1}
	nsym := a.window / a.sf
	for off := 0; off <= maxOffset; off++ {
		// Coherent integration over one symbol (the data phase is constant
		// there), non-coherent accumulation across symbols so the QPSK
		// data modulation does not cancel the correlation.
		var mag, energy float64
		for m := 0; m < nsym; m++ {
			var acc complex128
			for c := 0; c < a.sf; c++ {
				i := m*a.sf + c
				s := rx[off+i]
				acc += s * complex(float64(a.code[i]), 0)
				energy += real(s)*real(s) + imag(s)*imag(s)
			}
			mag += cmplx.Abs(acc)
		}
		if energy == 0 {
			continue
		}
		metric := mag / math.Sqrt(energy*float64(a.window))
		best.Tested++
		if metric > best.Metric {
			best.Metric = metric
			best.Offset = off
		}
	}
	best.Detected = best.Metric >= a.threshold && best.Offset >= 0
	return best
}
