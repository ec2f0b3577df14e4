// Package cdma implements the direct-sequence CDMA return-link modem that
// the paper's waveform-migration case study starts from (§2.3): OVSF
// channelization codes, Gold scrambling sequences, spreading/despreading,
// serial-search code acquisition (after De Gaudenzi et al. [7]) and an
// early-late delay-locked loop for chip timing tracking (after De Gaudenzi,
// Luise, Viola [8]). The S-UMTS reference chip rate is 2.048 Mcps.
package cdma

import "math/bits"

// ChipRateSUMTS is the S-UMTS chip rate the paper quotes (chips/second).
const ChipRateSUMTS = 2_048_000

// OVSF generates the orthogonal variable spreading factor channelization
// code tree: OVSF(sf, k) is row k of the sf×sf Hadamard-like tree, with
// chips in ±1 form.
func OVSF(sf, k int) []int8 {
	if sf < 1 || sf&(sf-1) != 0 {
		panic("cdma: OVSF spreading factor must be a power of two")
	}
	if k < 0 || k >= sf {
		panic("cdma: OVSF code index out of range")
	}
	code := []int8{1}
	for length := 1; length < sf; length *= 2 {
		// Descend the tree: bit selects the (c,c) or (c,-c) child.
		bit := (k >> (bits.TrailingZeros(uint(sf)) - bits.TrailingZeros(uint(length)) - 1)) & 1
		next := make([]int8, 2*length)
		copy(next, code)
		for i, c := range code {
			if bit == 0 {
				next[length+i] = c
			} else {
				next[length+i] = -c
			}
		}
		code = next
	}
	return code
}

// lfsr is a Fibonacci linear feedback shift register defined by a
// polynomial tap mask over GF(2).
type lfsr struct {
	state uint32
	taps  uint32
	n     uint
}

func newLFSR(degree uint, taps uint32, seed uint32) *lfsr {
	if seed == 0 {
		seed = 1
	}
	return &lfsr{state: seed & (1<<degree - 1), taps: taps, n: degree}
}

// next emits the LFSR output bit and advances the register.
func (l *lfsr) next() byte {
	out := byte(l.state & 1)
	fb := bits.OnesCount32(l.state&l.taps) & 1
	l.state >>= 1
	l.state |= uint32(fb) << (l.n - 1)
	return out
}

// GoldLength is the period of the degree-10 Gold sequences used for
// scrambling (2^10 - 1).
const GoldLength = 1023

// GoldSequence returns a length-1023 Gold scrambling sequence in ±1 form.
// The index selects the relative phase of the second preferred m-sequence,
// giving up to 1023 distinct sequences with bounded cross-correlation.
func GoldSequence(index int) []int8 {
	if index < 0 || index >= GoldLength {
		panic("cdma: Gold index out of range")
	}
	// Preferred pair of degree-10 polynomials: x^10+x^3+1 and
	// x^10+x^8+x^3+x^2+1 (tap masks exclude the x^10 term).
	a := newLFSR(10, 0b0000000100|1, 1) // taps at x^3, x^0 -> mask 0x009
	b := newLFSR(10, 0b0110001100|1, 1) // taps x^8,x^7?,... see below
	// Masks: bit i = coefficient of x^(i). poly1: x^3+1 -> bits 3,0.
	a.taps = 1<<3 | 1
	// poly2: x^8+x^3+x^2+1 -> bits 8,3,2,0.
	b.taps = 1<<8 | 1<<3 | 1<<2 | 1

	seq1 := make([]byte, GoldLength)
	seq2 := make([]byte, GoldLength)
	for i := range seq1 {
		seq1[i] = a.next()
		seq2[i] = b.next()
	}
	out := make([]int8, GoldLength)
	for i := range out {
		bit := seq1[i] ^ seq2[(i+index)%GoldLength]
		if bit == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}
