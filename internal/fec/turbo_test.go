package fec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// burstInfoLens returns the info lengths c decodes in this repository:
// what InfoBitsFor gives for the burst payloads of 64, 100, 200 (the
// payload default) and 256 QPSK symbols, and E8's 320-bit block.
func burstInfoLens(c Codec) []int {
	lens := []int{320}
	for _, symbols := range []int{64, 100, 200, 256} {
		lens = append(lens, infoBitsFor(c, 2*symbols))
	}
	return lens
}

// exits reports which path c.Decode(llr) takes: "exit" when the hard
// decisions are a codeword it returns as they are, "certified" when a
// Viterbi codeword repaired in windows passes the certificate, "full"
// when it runs the whole iterative decode or trellis search.
func exits(c Codec, llr []float64) string {
	switch c := c.(type) {
	case *TurboCode:
		k := (len(llr) - 12) / 3
		info := Uncoded{}.Decode(llr[:3*k])
		for i := 0; i < k; i++ {
			info[i] = info[3*i]
		}
		tb := c.getBuf(k)
		defer c.bufPool.Put(tb)
		if c.isCodeword(tb, llr, info[:k]) {
			return "exit"
		}
	case *ConvCode:
		vb := c.getViterbiBuf(len(llr) / len(c.gens))
		defer c.vbPool.Put(vb)
		qmax := quantMaxFor(len(llr))
		quantizeLLR(vb.q, llr, qmax)
		switch w := candidate(c, vb, qmax, vb.path); {
		case w == 0:
			return "exit"
		case w > 0 && certified(c, vb, vb.path):
			return "certified"
		}
	}
	return "full"
}

// fullDecode is c.Decode without the exit: the whole iterative decode or
// trellis search, whatever the input.
func fullDecode(c Codec, llr []float64) []byte {
	switch c := c.(type) {
	case *TurboCode:
		out := make([]byte, (len(llr)-12)/3)
		tb := c.getBuf(len(out))
		c.iterate(tb, llr, out)
		c.bufPool.Put(tb)
		return out
	case *ConvCode:
		steps := len(llr) / len(c.gens)
		vb := c.getViterbiBuf(steps)
		qmax := quantMaxFor(len(llr))
		quantizeLLR(vb.q, llr, qmax)
		out := make([]byte, steps-(c.k-1))
		viterbi(c, vb, vb.q, qmax, 0, 0, out)
		c.vbPool.Put(vb)
		return out
	}
	panic("fullDecode: not a trellis codec")
}

func TestTurboKernelMatchesReference(t *testing.T) {
	// The SISO gives the reference's extrinsic bits (see maxLogMAP), so
	// the decisions agree on every input: noisy words from below the
	// waterfall to far above it, hard words, and words salted with NaN,
	// ±Inf and ±0.
	rng := rand.New(rand.NewSource(31))
	tc := NewTurbo(6)
	salt := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, k := range []int{0, 1, 2, 16, 40, 160, 248} {
		for ebn0 := -1.0; ebn0 <= 20; ebn0 += 3 {
			for tr := 0; tr < 3; tr++ {
				llr := noisyLLR(rng, tc.Encode(randBits(rng, k)), ebn0, tc.Rate())
				if tr == 2 {
					for j := 0; j <= len(llr)/20; j++ {
						llr[rng.Intn(len(llr))] = salt[rng.Intn(len(salt))]
					}
				}
				want := refTurbo(tc, llr)
				if got := fullDecode(tc, llr); !bytes.Equal(got, want) {
					t.Fatalf("k=%d, %.0f dB, word %d: kernel differs from the reference in %d bits", k, ebn0, tr, CountBitErrors(got, want))
				}
			}
		}
		hard := HardLLR(tc.Encode(randBits(rng, k)))
		if got, want := fullDecode(tc, hard), refTurbo(tc, hard); !bytes.Equal(got, want) {
			t.Fatalf("k=%d: hard word differs from the reference", k)
		}
	}
}

// sisoMismatch runs one kernel SISO over the 3n+6 values of llr ([sys par
// x] per data step, x unused, then [sys par] ×3 of tail) with a-priori la,
// and refMaxLogMAP on the same inputs. It returns the first step whose
// extrinsic differs in its bits, or -1.
func sisoMismatch(tc *TurboCode, llr, la []float64) (step int, got, want float64) {
	n := len(la)
	sys, par := make([]float64, n), make([]float64, n)
	for i := range sys {
		sys[i], par[i] = llr[3*i], llr[3*i+1]
	}
	tail := llr[3*n : 3*n+6]
	tb := tc.getBuf(n)
	defer tc.bufPool.Put(tb)
	ext := make([]float64, n)
	maxLogMAP(tb, ext, sys, par, la, tail)
	ref := refMaxLogMAP(sys, par, la, []float64{tail[0], tail[2], tail[4]}, []float64{tail[1], tail[3], tail[5]})
	for i := range ext {
		if math.Float64bits(ext[i]) != math.Float64bits(ref[i]) {
			return i, ext[i], ref[i]
		}
	}
	return -1, 0, 0
}

func TestMaxLogMAPMatchesReference(t *testing.T) {
	// One SISO, extrinsic for extrinsic: a reassociated sum shows here
	// even where the decisions agree. Integer a-priori values make exact
	// ties and zero sums. Salted words put ±0 alone (zero branch costs of
	// either sign), or NaN, ±Inf and ±0, into sys, par, la and the tail.
	rng := rand.New(rand.NewSource(38))
	tc := NewTurbo(6)
	salts := [][]float64{nil, {0, math.Copysign(0, -1)}, {math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}}
	for _, k := range []int{0, 1, 2, 16, 40, 160, 248, 320} {
		words := [][]float64{HardLLR(tc.Encode(randBits(rng, k)))}
		for ebn0 := -1.0; ebn0 <= 20; ebn0 += 3 {
			words = append(words, noisyLLR(rng, tc.Encode(randBits(rng, k)), ebn0, tc.Rate()))
		}
		for w, word := range words {
			for mode := 0; mode < 3*len(salts); mode++ {
				llr, la := slices.Clone(word), make([]float64, k)
				for i := range la {
					switch mode % 3 {
					case 1:
						la[i] = 4 * rng.NormFloat64()
					case 2:
						la[i] = float64(rng.Intn(41) - 20)
					}
				}
				if salt := salts[mode/3]; salt != nil {
					llr[3*k+rng.Intn(6)] = salt[rng.Intn(len(salt))]
					for j := 0; j <= k/10; j++ {
						llr[rng.Intn(len(llr))] = salt[rng.Intn(len(salt))]
						if k > 0 {
							la[rng.Intn(k)] = salt[rng.Intn(len(salt))]
						}
					}
				}
				if i, got, want := sisoMismatch(tc, llr, la); i >= 0 {
					t.Fatalf("k=%d, word %d, a-priori mode %d: extrinsic %d is %v (%#x), the reference's %v (%#x)",
						k, w, mode, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}

	// Finite LLRs near MaxFloat64: state 1's backward cost at step 1
	// overflows to −Inf and meets states 2 and 3, unreachable (+Inf) at
	// step 0, in two of extrinsic 0's candidates. Those NaNs must not win:
	// the reference's extrinsic 0 is finite, and a min that let them
	// through would read 0.
	huge := make([]float64, 3*4+6)
	huge[0], huge[1] = 1, 1
	huge[3], huge[4] = 0.9*math.MaxFloat64, 0.9*math.MaxFloat64
	huge[6], huge[7] = -0.2*math.MaxFloat64, 0.2*math.MaxFloat64
	if i, got, want := sisoMismatch(tc, huge, make([]float64, 4)); i >= 0 {
		t.Fatalf("overflowing word: extrinsic %d is %v, the reference's %v", i, got, want)
	}
}

// best is min where either candidate is a number: one NaN yields the
// other candidate, whichever side it is on, and two yield +Inf.
func TestBestNaNFallbacks(t *testing.T) {
	nan := math.NaN()
	for _, x := range []float64{-3, 0, 2.5, -math.MaxFloat64, math.Inf(-1), math.Inf(1)} {
		if a, b := best(nan, x), best(x, nan); a != x || b != x {
			t.Fatalf("best(NaN, %v) = %v, best(%v, NaN) = %v, want %v", x, a, x, b, x)
		}
	}
	if m := best(nan, nan); !math.IsInf(m, 1) {
		t.Fatalf("best(NaN, NaN) = %v, want +Inf", m)
	}
}

func TestDecodeExitOnBurstLengths(t *testing.T) {
	// Every hard codeword at every burst length takes the exit and decodes
	// to its info bits.
	rng := rand.New(rand.NewSource(32))
	for _, c := range []Codec{UMTSConvHalf(), UMTSConvThird(), NewTurbo(6)} {
		for _, k := range burstInfoLens(c) {
			for tr := 0; tr < 10; tr++ {
				info := randBits(rng, k)
				llr := HardLLR(c.Encode(info))
				if exits(c, llr) != "exit" {
					t.Fatalf("%s, k=%d: a hard codeword does not take the exit", c.Name(), k)
				}
				if got := c.Decode(llr); !bytes.Equal(got, info) {
					t.Fatalf("%s, k=%d: %d bit errors on a hard codeword", c.Name(), k, CountBitErrors(got, info))
				}
			}
		}
	}
}

func TestDecodeExitMatchesFullDecode(t *testing.T) {
	// At 6–20 dB most noisy codewords are sign-consistent; the exit must
	// return what the full decode (the float reference for turbo) does.
	// Turbo exits only on equal magnitudes, so its noisy words all decode.
	rng := rand.New(rand.NewSource(33))
	for _, c := range []Codec{UMTSConvHalf(), UMTSConvThird(), NewTurbo(6)} {
		var words, exited int
		for _, k := range burstInfoLens(c) {
			for ebn0 := 6.0; ebn0 <= 20; ebn0 += 2 {
				for tr := 0; tr < 3; tr++ {
					llr := noisyLLR(rng, c.Encode(randBits(rng, k)), ebn0, c.Rate())
					want := fullDecode(c, llr)
					if tc, ok := c.(*TurboCode); ok {
						want = refTurbo(tc, llr)
					}
					if got := c.Decode(llr); !bytes.Equal(got, want) {
						t.Fatalf("%s, k=%d, %.0f dB: Decode differs from the full decode (%s)", c.Name(), k, ebn0, exits(c, llr))
					}
					words++
					if exits(c, llr) == "exit" {
						exited++
					}
				}
			}
		}
		if _, conv := c.(*ConvCode); conv && exited*4 < words {
			t.Fatalf("%s: only %d of %d noisy words took the exit", c.Name(), exited, words)
		}
	}
}

func TestTurboExitNeedsExactArithmetic(t *testing.T) {
	// The turbo exit takes a consistent word only when every |llr| is one
	// L whose mantissa, with k and the iteration count, keeps the decode
	// exact (see isCodeword); whatever it takes, it decodes as refTurbo.
	rng := rand.New(rand.NewSource(34))
	for _, tc := range []struct {
		iters, k int
		mag      float64 // every |llr|; 0 salts llr[5] with edit instead
		edit     float64 // multiplies llr[5] of the ±10 word when mag is 0
		want     bool
	}{
		{6, 320, 10, 0, true},
		{6, 320, 0x1p-500, 0, true},
		{6, 320, 0x1p500, 0, true},
		{6, 16379, 10, 0, true},  // 3 + 14 + 36 bits = 53
		{6, 16380, 10, 0, false}, // n+4 = 2^14 needs a 15th bit
		{6, 40, 0.1, 0, false},   // a 53-bit mantissa
		{8, 11, 1, 0, true},      // 1 + 4 + 48 = 53
		{8, 12, 1, 0, false},     // n+4 = 16 needs a 5th bit
		{9, 1, 1, 0, false},      // 6·9 = 54 bits of growth alone
		{6, 40, 0x1p-501, 0, false},
		{6, 40, 0, 0.5, false}, // unequal magnitudes
		{6, 40, 0, 0, false},
		{6, 40, 0, math.Inf(1), false},
		{6, 40, 0, math.NaN(), false},
	} {
		c := NewTurbo(tc.iters)
		info := randBits(rng, tc.k)
		llr := HardLLR(c.Encode(info))
		for i := range llr {
			if tc.mag != 0 {
				llr[i] = math.Copysign(tc.mag, llr[i])
			}
		}
		if tc.mag == 0 {
			llr[5] *= tc.edit
		}
		if got := exits(c, llr) == "exit"; got != tc.want {
			t.Fatalf("%+v: exit %v", tc, got)
		}
		if tc.k <= 320 && !bytes.Equal(c.Decode(llr), refTurbo(c, llr)) {
			t.Fatalf("%+v: Decode differs from the reference", tc)
		}
		if tc.want && !bytes.Equal(c.Decode(llr), info) {
			t.Fatalf("%+v: the exit returns the wrong bits", tc)
		}
	}
}

func TestTurboAppendEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	tc := NewTurbo(6)
	for _, k := range []int{0, 1, 2, 3, 7, 8, 40, 160, 320} {
		info := randBits(rng, k)
		want := refTurboEncode(tc, info)
		prefix := []byte{1, 0, 1}
		got := tc.AppendEncode(append([]byte(nil), prefix...), info)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("k=%d: AppendEncode differs from the reference encoder", k)
		}
	}
}

func TestTurboAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rng := rand.New(rand.NewSource(36))
	tc := NewTurbo(6)
	for _, k := range []int{160, 320} {
		info := randBits(rng, k)
		dst := make([]byte, 0, tc.EncodedLen(k))
		if a := testing.AllocsPerRun(20, func() { dst = tc.AppendEncode(dst[:0], info) }); a != 0 {
			t.Fatalf("k=%d: AppendEncode allocates %v times", k, a)
		}
		noisy := noisyLLR(rng, dst, 2, tc.Rate())
		hard := HardLLR(dst)
		out := make([]byte, 0, k)
		for name, llr := range map[string][]float64{"noisy": noisy, "hard": hard} {
			if a := testing.AllocsPerRun(20, func() { out = tc.AppendDecode(out[:0], llr) }); a != 0 {
				t.Fatalf("k=%d, %s: AppendDecode allocates %v times, want 0", k, name, a)
			}
			if a := testing.AllocsPerRun(20, func() { tc.Decode(llr) }); a != 1 {
				t.Fatalf("k=%d, %s: Decode allocates %v times, want 1 (its output)", k, name, a)
			}
		}
	}
}

// llrBytes packs llr as the little-endian float64s the fuzzers read.
func llrBytes(llr []float64) []byte {
	raw := make([]byte, 8*len(llr))
	for i, x := range llr {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(x))
	}
	return raw
}

// FuzzTurboDecode: any LLR vector of a legal 3k+12 length — NaN, ±Inf,
// ±0, all-equal and sign-consistent codewords included — decodes without
// panicking to exactly what the float reference decodes, exit or not, and
// one SISO over it with la = 0 gives the reference's extrinsic bits. raw
// is read as little-endian float64s, trimmed or zero-padded to 3k+12.
func FuzzTurboDecode(f *testing.F) {
	tc := NewTurbo(6)
	rng := rand.New(rand.NewSource(37))
	f.Add([]byte{})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1} {
		f.Add(bytes.Repeat(llrBytes([]float64{v}), 3*5+12))
	}
	f.Add(llrBytes(HardLLR(tc.Encode(randBits(rng, 8)))))
	f.Add(llrBytes(noisyLLR(rng, tc.Encode(randBits(rng, 16)), 10, tc.Rate())))
	wide := HardLLR(tc.Encode(randBits(rng, 4)))
	wide[0] *= 0x1p-30
	f.Add(llrBytes(wide))

	f.Fuzz(func(t *testing.T, raw []byte) {
		k := max(len(raw)/8-12, 0) / 3
		llr := make([]float64, 3*k+12)
		for i := range llr {
			if 8*i+8 <= len(raw) {
				llr[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		got, want := tc.Decode(llr), refTurbo(tc, llr)
		if !bytes.Equal(got, want) {
			t.Fatalf("k=%d: %d bits differ from the reference (%s)", k, CountBitErrors(got, want), exits(tc, llr))
		}
		if i, got, want := sisoMismatch(tc, llr, make([]float64, k)); i >= 0 {
			t.Fatalf("k=%d: extrinsic %d is %v (%#x), the reference's %v (%#x)", k, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
