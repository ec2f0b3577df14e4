package fec

import (
	"math/rand"
	"testing"
)

// slotPayloadBits is the coded-bit budget of the traffic engine's
// 320-symbol slot: 16 guard, 32 preamble and 16 unique-word symbols leave
// 256 QPSK payload symbols.
const slotPayloadBits = 512

// infoBitsFor mirrors traffic.InfoBitsFor (which this package cannot
// import): the largest k, in steps of 8 from 16, whose codeword fits a
// burst of budget coded bits.
func infoBitsFor(c Codec, budget int) int {
	k := 16
	for c.EncodedLen(k+8) <= budget {
		k += 8
	}
	return k
}

// engineInfoBits is the info length of the engine's slot: k = 248 for
// rate 1/2, 160 for rate 1/3 and for the turbo code.
func engineInfoBits(c Codec) int { return infoBitsFor(c, slotPayloadBits) }

var benchSink []byte

// benchDecode times c.Decode over a rotating set of codewords: noisy soft
// LLRs at ebn0dB as the uplink sees them, or with hard set the sign-sliced
// ±10 LLRs of the ground-verify path.
func benchDecode(b *testing.B, c Codec, ebn0dB float64, hard bool) {
	rng := rand.New(rand.NewSource(1))
	k := engineInfoBits(c)
	const words = 16
	llrs := make([][]float64, words)
	for i := range llrs {
		coded := c.Encode(randBits(rng, k))
		if hard {
			llrs[i] = HardLLR(coded)
		} else {
			llrs[i] = noisyLLR(rng, coded, ebn0dB, c.Rate())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.Decode(llrs[i%words])
	}
}

// BenchmarkViterbi decodes the engine's conv slot at the benchmark
// workloads' 9 dB, below them (4 dB) and on the hard words of the ground
// verify.
func BenchmarkViterbi(b *testing.B) {
	for _, bc := range []struct {
		name string
		code *ConvCode
	}{{"r1_2", UMTSConvHalf()}, {"r1_3", UMTSConvThird()}} {
		b.Run(bc.name+"/clean", func(b *testing.B) { benchDecode(b, bc.code, 9, false) })
		b.Run(bc.name+"/noisy", func(b *testing.B) { benchDecode(b, bc.code, 4, false) })
		b.Run(bc.name+"/hard", func(b *testing.B) { benchDecode(b, bc.code, 0, true) })
	}
}

// BenchmarkTurboDecode decodes the engine's turbo slot in the waterfall
// (1 dB, the low end of E8's sweep), far above it (10 dB) and on the hard
// words of the ground verify.
func BenchmarkTurboDecode(b *testing.B) {
	tc := NewTurbo(6)
	b.Run("waterfall", func(b *testing.B) { benchDecode(b, tc, 1, false) })
	b.Run("noisy", func(b *testing.B) { benchDecode(b, tc, 10, false) })
	b.Run("hard", func(b *testing.B) { benchDecode(b, tc, 0, true) })
}
