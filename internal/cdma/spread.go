package cdma

import "repro/internal/dsp"

// Spreader spreads QPSK/BPSK data symbols by an OVSF channelization code
// and a Gold scrambling sequence, producing chips at sf chips per symbol.
type Spreader struct {
	ovsf     []int8
	scramble []int8
	chipIdx  int // running chip index into the scrambling sequence
}

// NewSpreader builds a spreader for spreading factor sf, channelization
// code index k and scrambling code index scr.
func NewSpreader(sf, k, scr int) *Spreader {
	return &Spreader{ovsf: OVSF(sf, k), scramble: GoldSequence(scr)}
}

// Reset rewinds the scrambling phase to the epoch.
func (s *Spreader) Reset() { s.chipIdx = 0 }

// Spread converts a block of data symbols into sf*len(symbols) chips.
func (s *Spreader) Spread(symbols dsp.Vec) dsp.Vec {
	sf := len(s.ovsf)
	out := dsp.NewVec(len(symbols) * sf)
	for i, sym := range symbols {
		for c := 0; c < sf; c++ {
			chip := float64(s.ovsf[c]) * float64(s.scramble[s.chipIdx%GoldLength])
			out[i*sf+c] = sym * complex(chip, 0)
			s.chipIdx++
		}
	}
	return out
}

// Despreader is the matched operation: multiply by the conjugate code and
// integrate over each symbol period.
type Despreader struct {
	ovsf     []int8
	scramble []int8
	chipIdx  int
}

// NewDespreader builds a despreader matched to NewSpreader(sf, k, scr).
func NewDespreader(sf, k, scr int) *Despreader {
	return &Despreader{ovsf: OVSF(sf, k), scramble: GoldSequence(scr)}
}

// Reset rewinds the scrambling phase.
func (d *Despreader) Reset() { d.chipIdx = 0 }

// Despread integrates chips into symbols; len(chips) must be a multiple of
// the spreading factor. The output is normalized by sf so a unit-power
// input yields unit symbols.
func (d *Despreader) Despread(chips dsp.Vec) dsp.Vec {
	sf := len(d.ovsf)
	if len(chips)%sf != 0 {
		panic("cdma: Despread chip count not a multiple of the spreading factor")
	}
	out := dsp.NewVec(len(chips) / sf)
	for i := range out {
		var acc complex128
		for c := 0; c < sf; c++ {
			code := float64(d.ovsf[c]) * float64(d.scramble[d.chipIdx%GoldLength])
			acc += chips[i*sf+c] * complex(code, 0)
			d.chipIdx++
		}
		out[i] = acc / complex(float64(sf), 0)
	}
	return out
}
