// Package modem implements the MF-TDMA burst demodulator that the paper's
// waveform-migration case study reconfigures to (§2.3, Fig 3): PSK mapping,
// the Gardner timing error detector [5] and the Oerder-Meyr square timing
// estimator [6] (the two timing-recovery options the paper cites, chosen by
// burst length), feedforward and decision-directed carrier recovery, the
// burst format with preamble and unique word, and MF-TDMA framing.
package modem

import (
	"math"

	"repro/internal/dsp"
)

// Modulation identifies a PSK constellation.
type Modulation int

// Supported constellations.
const (
	BPSK Modulation = iota
	QPSK
)

// BitsPerSymbol returns 1 for BPSK and 2 for QPSK.
func (m Modulation) BitsPerSymbol() int {
	if m == BPSK {
		return 1
	}
	return 2
}

// String implements fmt.Stringer.
func (m Modulation) String() string {
	if m == BPSK {
		return "BPSK"
	}
	return "QPSK"
}

// Map converts bits to unit-power Gray-mapped symbols. For QPSK the bit
// count must be even.
func (m Modulation) Map(bits []byte) dsp.Vec {
	return m.MapInto(dsp.NewVec(len(bits)/m.BitsPerSymbol()), bits)
}

// MapInto is the allocation-free variant of Map: it writes the mapped
// symbols into dst (at least len(bits)/BitsPerSymbol long) and returns
// the filled prefix. A BPSK byte other than 0, and a QPSK byte of 1, map
// to the negative level. The level is looked up, not branched to: random
// bits would mispredict half the branches.
func (m Modulation) MapInto(dst dsp.Vec, bits []byte) dsp.Vec {
	switch m {
	case BPSK:
		lvl := [2]complex128{1, -1}
		dst = dst[:len(bits)]
		for i, b := range bits {
			dst[i] = lvl[b2i(b != 0)]
		}
		return dst
	case QPSK:
		if len(bits)%2 != 0 {
			panic("modem: QPSK Map needs an even number of bits")
		}
		lvl := [2]float64{1 / math.Sqrt2, -1 / math.Sqrt2}
		dst = dst[:len(bits)/2]
		for i := range dst {
			dst[i] = complex(lvl[b2i(bits[2*i] == 1)], lvl[b2i(bits[2*i+1] == 1)])
		}
		return dst
	}
	panic("modem: unknown modulation")
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DemapInto writes one soft value per bit (positive ⇒ bit 0), scaled by
// scale (use 1 for normalized symbols), into dst (at least
// len(syms)*BitsPerSymbol long) and returns the filled prefix.
func (m Modulation) DemapInto(dst []float64, syms dsp.Vec, scale float64) []float64 {
	switch m {
	case BPSK:
		dst = dst[:len(syms)]
		for i, s := range syms {
			dst[i] = real(s) * scale
		}
		return dst
	case QPSK:
		dst = dst[:2*len(syms)]
		for i, s := range syms {
			dst[2*i] = real(s) * scale * math.Sqrt2
			dst[2*i+1] = imag(s) * scale * math.Sqrt2
		}
		return dst
	}
	panic("modem: unknown modulation")
}

// HardBits slices soft values into bits.
func HardBits(soft []float64) []byte {
	out := make([]byte, len(soft))
	for i, s := range soft {
		if s < 0 {
			out[i] = 1
		}
	}
	return out
}
