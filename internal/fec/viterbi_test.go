package fec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// pathMetric is the float correlation of llr with the codeword c.Encode
// produces for info: the quantity both decoders maximise.
func pathMetric(c *ConvCode, llr []float64, info []byte) float64 {
	var m float64
	for i, b := range c.Encode(info) {
		if b == 0 {
			m += llr[i]
		} else {
			m -= llr[i]
		}
	}
	return m
}

// checkAgainstRef decodes llr with the kernel and the float64 reference.
// With exact set the info bits must be identical. Otherwise a difference
// is accepted only when the kernel's path is maximum-likelihood to within
// the quantisation error (each of len(llr) values is off by at most half a
// step of peak/quantMax, on each of the two paths); it reports whether the
// bits differed.
func checkAgainstRef(t *testing.T, c *ConvCode, llr []float64, exact bool) (differed bool) {
	t.Helper()
	got, want := c.Decode(llr), refDecode(c, llr)
	if bytes.Equal(got, want) {
		return false
	}
	if exact {
		t.Fatalf("%s: %d info bits differ from the float64 reference", c.Name(), CountBitErrors(got, want))
	}
	var peak float64
	for _, x := range llr {
		peak = math.Max(peak, math.Abs(x))
	}
	tol := float64(len(llr)) * peak / float64(quantMaxFor(len(llr)))
	if gap := pathMetric(c, llr, want) - pathMetric(c, llr, got); gap > tol {
		t.Fatalf("%s: kernel path is %g below the reference's, beyond the quantisation tolerance %g", c.Name(), gap, tol)
	}
	return true
}

// oddCodes are non-UMTS trellises: generators without the MSB (current
// input) or LSB (oldest bit) tap, so a butterfly's four branch outputs are
// not the complementary pairs of the UMTS codes; K below and above one
// decision word per half; the full four outputs per step.
func oddCodes() []*ConvCode {
	return []*ConvCode{
		NewConvCode("k2", 2, 0o1, 0o3),
		NewConvCode("k3-no-msb-lsb", 3, 0o3, 0o6),
		NewConvCode("k7-no-msb-lsb", 7, 0o066, 0o133),
		NewConvCode("k7-r1/3", 7, 0o133, 0o171, 0o052),
		NewConvCode("k11-r1/4", 11, 0o2327, 0o1156, 0o3372, 0o0635),
	}
}

func TestViterbiMatchesReferenceOverEbN0(t *testing.T) {
	// E12's range. Differences are near-ties the quantisation resolves the
	// other way: ML-equivalent, and rare even at 0 dB.
	rng := rand.New(rand.NewSource(21))
	const k, trials = 248, 25
	punctured := UMTSConvTwoThirds()
	var words, differed int
	for ebn0 := 0.0; ebn0 <= 12; ebn0 += 2 {
		for _, c := range []*ConvCode{UMTSConvHalf(), UMTSConvThird()} {
			for tr := 0; tr < trials; tr++ {
				llr := noisyLLR(rng, c.Encode(randBits(rng, k)), ebn0, c.Rate())
				words++
				if checkAgainstRef(t, c, llr, false) {
					differed++
				}
			}
		}
		for tr := 0; tr < trials; tr++ {
			// The wrapper de-punctures (zero LLRs at the deleted
			// positions) and rides on the mother code's kernel.
			llr := noisyLLR(rng, punctured.Encode(randBits(rng, k)), ebn0, punctured.Rate())
			full := Depuncture(llr, punctured.pattern, punctured.motherLenFor(len(llr)))
			want := refDecode(punctured.mother, full)
			words++
			if got := punctured.Decode(llr); !bytes.Equal(got, want) {
				differed++
				checkAgainstRef(t, punctured.mother, full, false)
			}
		}
	}
	if differed*100 > words {
		t.Fatalf("%d of %d codewords differ from the reference", differed, words)
	}
}

func TestViterbiMatchesReferenceOnOddCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range oddCodes() {
		for tr := 0; tr < 20; tr++ {
			llr := noisyLLR(rng, c.Encode(randBits(rng, 70)), 3, c.Rate())
			checkAgainstRef(t, c, llr, false)
		}
	}
}

func TestViterbiTieRule(t *testing.T) {
	// Equal-magnitude LLRs make path-metric ties exact in both arithmetics,
	// so the kernel must reproduce the reference bit for bit: ties keep the
	// even predecessor.
	rng := rand.New(rand.NewSource(23))
	codes := append(oddCodes(), UMTSConvHalf(), UMTSConvThird())
	for _, c := range codes {
		for _, flipPct := range []int{0, 2, 10, 30, 50} {
			for tr := 0; tr < 6; tr++ {
				coded := c.Encode(randBits(rng, 90))
				for i := range coded {
					if rng.Intn(100) < flipPct {
						coded[i] ^= 1
					}
				}
				checkAgainstRef(t, c, HardLLR(coded), true)
			}
		}
		zeros := make([]float64, c.EncodedLen(40))
		checkAgainstRef(t, c, zeros, true)
		for _, b := range c.Decode(zeros) {
			if b != 0 {
				t.Fatalf("%s: all-erasure input must decode to the all-zero path", c.Name())
			}
		}
	}
}

func TestViterbiLongBlockShrinksScale(t *testing.T) {
	// Past maxPathMetric/llrQuantMax LLRs the quantised peak must shrink so
	// that the widest compare-select difference, 4·len·qmax+1, stays in
	// int32. Saturated input (every |q| = qmax) is the worst case for
	// metric growth; an overflow would wrap a metric and break the match.
	c := UMTSConvThird()
	const k = 5600
	n := c.EncodedLen(k)
	qmax := quantMaxFor(n)
	if qmax >= llrQuantMax {
		t.Fatalf("%d LLRs: quantised peak %d did not shrink", n, qmax)
	}
	for _, l := range []int{1, 608, maxPathMetric / llrQuantMax, n, 1 << 20, maxPathMetric, math.MaxInt32} {
		if span := 4*int64(l)*int64(quantMaxFor(l)) + 1; span > math.MaxInt32 {
			t.Fatalf("%d LLRs: metric span %d overflows int32", l, span)
		}
	}
	rng := rand.New(rand.NewSource(24))
	info := randBits(rng, k)
	coded := c.Encode(info)
	for i := 0; i < len(coded); i += 37 {
		coded[i] ^= 1
	}
	llr := HardLLR(coded)
	checkAgainstRef(t, c, llr, true)
	if errs := CountBitErrors(info, c.Decode(llr)); errs != 0 {
		t.Fatalf("long block: %d bit errors", errs)
	}
}

func TestViterbiUnreachedBound(t *testing.T) {
	// One info bit of the K=7 code: both codewords score -5 qmax on these
	// hard decisions (the tie rule keeps the 0), and a path from a nonzero
	// start state scores 11 qmax. Other start states must begin below
	// every true path at every step, at -(2B+1) with B = 14 qmax: from
	// -(B+1) that path would end at -3 qmax - 1 and decode a 1.
	c := oddCodes()[2]
	llr := []float64{-1, 1, 1, -1, 1, 1, -1, 0, -1, -1, -1, -1, -1, -1}
	want := refDecode(c, llr)
	if !bytes.Equal(want, []byte{0}) {
		t.Fatalf("%s: the float reference decodes %v, want [0]", c.Name(), want)
	}
	if got := fullDecode(c, llr); !bytes.Equal(got, want) {
		t.Fatalf("%s: the trellis search decodes %v, want %v", c.Name(), got, want)
	}
	if got := c.Decode(llr); !bytes.Equal(got, want) {
		t.Fatalf("%s: Decode gives %v, want %v", c.Name(), got, want)
	}
}

func TestQuantizeLLRNonFinite(t *testing.T) {
	in := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 2, -1, 5e-324, math.MaxFloat64}
	q := make([]int32, len(in))
	quantizeLLR(q, in, 1000)
	if want := []int32{0, 1000, -1000, 0, 0, 0, 0, 1000}; !slices.Equal(q, want) {
		t.Fatalf("quantised %v, want %v", q, want)
	}
	quantizeLLR(q[:6], in[:6], 1000)
	if want := []int32{0, 1000, -1000, 0, 1000, -500}; !slices.Equal(q[:6], want) {
		t.Fatalf("quantised %v, want %v", q[:6], want)
	}
	sub := []float64{5e-324, -5e-324, math.NaN(), math.Inf(-1)}
	quantizeLLR(q[:4], sub, 7)
	if want := []int32{7, -7, 0, -7}; !slices.Equal(q[:4], want) {
		t.Fatalf("subnormal peak: quantised %v, want %v", q[:4], want)
	}
}

func TestCheckDecodeLen(t *testing.T) {
	for _, tc := range []struct {
		c    Codec
		n    int
		fits bool
	}{
		{UMTSConvHalf(), 16, true}, {UMTSConvHalf(), 14, false}, {UMTSConvHalf(), 17, false},
		{UMTSConvThird(), 24, true}, {UMTSConvThird(), 25, false}, {UMTSConvThird(), 0, false},
		{NewTurbo(2), 12, true}, {NewTurbo(2), 15, true}, {NewTurbo(2), 14, false}, {NewTurbo(2), 9, false},
		{UMTSConvTwoThirds(), 12, true}, {UMTSConvTwoThirds(), 11, false},
		{Uncoded{}, 0, true}, {Uncoded{}, 5, true},
	} {
		if err := tc.c.CheckDecodeLen(tc.n); (err == nil) != tc.fits {
			t.Errorf("%s, %d soft values: fits = %v, err = %v", tc.c.Name(), tc.n, tc.fits, err)
		}
	}
}

// fuzzCodes are the codes FuzzConvDecode picks from by its first argument.
func fuzzCodes() []*ConvCode {
	return append(oddCodes(), UMTSConvHalf(), UMTSConvThird())
}

// FuzzConvDecode: any valid-length LLR vector — NaN, ±Inf, subnormals and
// all-zero included — decodes without panicking to exactly k bits in
// {0, 1}, the bits of the trellis search whether or not Decode took the
// codeword-consistent exit, and (for finite input far from overflow) a
// path as likely as the float64 reference's within the quantisation
// tolerance. raw is read as little-endian float64s and trimmed to a whole
// number of trellis steps (padded with erasures up to the tail).
func TestConvAppendDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rng := rand.New(rand.NewSource(37))
	for _, c := range []*ConvCode{UMTSConvHalf(), UMTSConvThird()} {
		enc := c.Encode(randBits(rng, 192))
		out := make([]byte, 0, 192)
		for name, llr := range map[string][]float64{"noisy": noisyLLR(rng, enc, 2, c.Rate()), "hard": HardLLR(enc)} {
			if a := testing.AllocsPerRun(20, func() { out = c.AppendDecode(out[:0], llr) }); a != 0 {
				t.Fatalf("%s, %s: AppendDecode allocates %v times, want 0", c.Name(), name, a)
			}
		}
	}
}

func FuzzConvDecode(f *testing.F) {
	// The seed corpus proper is testdata/fuzz/FuzzConvDecode: Gaussian,
	// NaN/±Inf-salted, all-Inf, all-zero, extreme-magnitude and
	// shorter-than-tail vectors across the codes.
	f.Add(uint8(0), []byte{})
	f.Add(uint8(6), bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, 33)) // NaNs
	f.Add(uint8(5), llrBytes(HardLLR(UMTSConvHalf().Encode(randBits(rand.New(rand.NewSource(1)), 16)))))

	f.Fuzz(func(t *testing.T, pick uint8, raw []byte) {
		codes := fuzzCodes()
		c := codes[int(pick)%len(codes)]
		n := len(c.gens)
		steps := max(len(raw)/8/n, c.k-1)
		llr := make([]float64, steps*n)
		for i := range llr {
			if 8*i+8 <= len(raw) {
				llr[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		got := c.Decode(llr)
		if want := steps - (c.k - 1); len(got) != want {
			t.Fatalf("%s: %d LLRs decoded to %d bits, want %d", c.Name(), len(llr), len(got), want)
		}
		for i, b := range got {
			if b > 1 {
				t.Fatalf("%s: bit %d = %d", c.Name(), i, b)
			}
		}
		if !bytes.Equal(got, fullDecode(c, llr)) {
			t.Fatalf("%s: Decode differs from the trellis search (%s)", c.Name(), exits(c, llr))
		}
		for _, x := range llr {
			if !(math.Abs(x) <= 1e300) {
				return
			}
		}
		checkAgainstRef(t, c, llr, false)
	})
}

// minWeightWord returns the info bits of a least-weight nonzero codeword
// of c among those of at most 16 info bits, and its weight. It encodes
// from the generators alone, not from the trellis tables. Every such
// codeword is a shift of one whose first info bit is set.
func minWeightWord(c *ConvCode) (info []byte, weight int) {
	const k = 16
	var best uint32
	weight = math.MaxInt
	for u := uint32(1); u < 1<<k; u += 2 {
		w := 0
		var reg uint32
		for t := 0; t < k+c.k-1; t++ {
			reg = reg>>1 | (u>>uint(t)&1)<<uint(c.k-1)
			for _, g := range c.gens {
				w += bits.OnesCount32(reg&g) & 1
			}
		}
		if w < weight {
			best, weight = u, w
		}
	}
	info = make([]byte, k)
	for i := range info {
		info[i] = byte(best >> uint(i) & 1)
	}
	return info, weight
}

func TestFreeDistance(t *testing.T) {
	// The certificate is sound only if dfree is no larger than the true
	// free distance; a constant that fits the UMTS codes does not fit a
	// K=3 code (k3-no-msb-lsb is also catastrophic: a zero-weight loop).
	if d := UMTSConvHalf().dfree; d != 12 {
		t.Fatalf("UMTS rate 1/2: dfree %d, want 12", d)
	}
	if d := UMTSConvThird().dfree; d != 18 {
		t.Fatalf("UMTS rate 1/3: dfree %d, want 18", d)
	}
	for _, c := range fuzzCodes() {
		if _, w := minWeightWord(c); c.dfree != w {
			t.Errorf("%s: dfree %d, brute force over 16 info bits %d", c.Name(), c.dfree, w)
		}
	}
}

func TestCertifiedIsViterbi(t *testing.T) {
	// Whenever the certificate passes, the candidate is bit for bit what
	// the full trellis search returns: noisy words from 3 to 12 dB, hard
	// words with 1–6 flipped bits, and near-tie words halfway between two
	// codewords a least-weight codeword apart, whose equal magnitudes
	// make a strict and a non-strict comparison disagree, and words erased
	// where those two codewords differ.
	rng := rand.New(rand.NewSource(25))
	fired := map[string]int{}
	check := func(c *ConvCode, llr []float64, kind string) {
		t.Helper()
		path := exits(c, llr)
		if path == "certified" {
			fired[kind]++
		}
		if got, want := c.Decode(llr), fullDecode(c, llr); !bytes.Equal(got, want) {
			t.Fatalf("%s, %s word (%s): %d bits differ from the trellis search", c.Name(), kind, path, CountBitErrors(got, want))
		}
	}
	for _, c := range fuzzCodes() {
		k := 70
		if c.k == 9 {
			k = engineInfoBits(c)
		}
		for ebn0 := 3.0; ebn0 <= 12; ebn0 += 1.5 {
			for tr := 0; tr < 15; tr++ {
				check(c, noisyLLR(rng, c.Encode(randBits(rng, k)), ebn0, c.Rate()), "noisy")
			}
		}
		for flips := 1; flips <= 6; flips++ {
			for tr := 0; tr < 10; tr++ {
				coded := c.Encode(randBits(rng, k))
				for _, i := range rng.Perm(len(coded))[:flips] {
					coded[i] ^= 1
				}
				check(c, HardLLR(coded), "hard")
			}
		}
		low, d := minWeightWord(c)
		for tr := 0; tr < 8; tr++ {
			info := randBits(rng, k)
			coded := c.Encode(info)
			at := rng.Intn(k - len(low) + 1)
			for i, b := range low {
				info[at+i] ^= b
			}
			var diff []int // where the two codewords differ, ascending
			for i, b := range c.Encode(info) {
				if b != coded[i] {
					diff = append(diff, i)
				}
			}
			for _, flip := range [][]int{diff[:d/2], diff[d/2:], diff[:(d+1)/2], diff[(d+1)/2:]} {
				word := slices.Clone(coded)
				for _, i := range flip {
					word[i] ^= 1
				}
				check(c, HardLLR(word), "near-tie")
			}
			erased := HardLLR(coded) // the two codewords tie exactly
			for _, i := range diff {
				erased[i] = 0
			}
			check(c, erased, "erased")
		}
	}
	for _, kind := range []string{"noisy", "hard", "near-tie"} {
		if fired[kind] == 0 {
			t.Errorf("the certificate never passed on a %s word", kind)
		}
	}
}

// A de-punctured rate-2/3 word erases one coded bit in four, far more
// than dfree, so the certificate can never pass on it: a word with hard
// errors makes candidate give up before its first window (the walk stops
// short of the last step), and decodes as the trellis search does. The
// info words are sparse, so the erasures (read as zeros) set few
// syndrome bits and the syndrome test alone would let the windows run.
func TestPuncturedWordsRunNoWindow(t *testing.T) {
	p := UMTSConvTwoThirds()
	c := p.mother
	rng := rand.New(rand.NewSource(29))
	k := engineInfoBits(p)
	for tr := 0; tr < 20; tr++ {
		info := make([]byte, k)
		for _, i := range rng.Perm(k)[:tr%4] {
			info[i] = 1
		}
		coded := p.Encode(info)
		for _, i := range rng.Perm(len(coded))[:1+tr%3] {
			coded[i] ^= 1
		}
		llr := Depuncture(HardLLR(coded), p.pattern, c.EncodedLen(k))
		vb := c.getViterbiBuf(len(llr) / len(c.gens))
		qmax := quantMaxFor(len(llr))
		quantizeLLR(vb.q, llr, qmax)
		for i := range vb.path {
			vb.path[i] = 2
		}
		if w := candidate(c, vb, qmax, vb.path); w != -1 || vb.path[len(vb.path)-1] != 2 {
			t.Fatalf("word %d: candidate returned %d, last step %d: a window ran", tr, w, vb.path[len(vb.path)-1])
		}
		c.vbPool.Put(vb)
		if got, want := p.Decode(HardLLR(coded)), fullDecode(c, llr); !bytes.Equal(got[:k], want[:k]) {
			t.Fatalf("word %d: %d bits differ from the trellis search", tr, CountBitErrors(got[:k], want[:k]))
		}
	}
}

func TestCertifiedHitRate(t *testing.T) {
	// The benchmark workloads' 9 dB: most rate-1/2 words miss the exit
	// and carry a hard error or two, and the repaired candidate certifies
	// them. A certificate that never passed would decode every word
	// correctly through the full trellis, and only this test would see it.
	c := UMTSConvHalf()
	rng := rand.New(rand.NewSource(26))
	const words = 500
	paths := map[string]int{}
	for i := 0; i < words; i++ {
		paths[exits(c, noisyLLR(rng, c.Encode(randBits(rng, 248)), 9, c.Rate()))]++
	}
	if paths["certified"]*10 < words*6 {
		t.Fatalf("%d of %d words certified (%v), want at least 60 %%", paths["certified"], words, paths)
	}
}

func TestQuantizeLLRRoundsToNearest(t *testing.T) {
	// Peak 10 onto qmax 10: each value rounds to the nearest integer, away
	// from zero, and not toward it. The certificate compares sums of
	// these magnitudes.
	in := []float64{10, 2.6, -2.6, 2.4, -2.4, 0.6, -0.6, 0.4, -9.6, 9.4}
	q := make([]int32, len(in))
	quantizeLLR(q, in, 10)
	if want := []int32{10, 3, -3, 2, -2, 1, -1, 0, -10, 9}; !slices.Equal(q, want) {
		t.Fatalf("quantised %v, want %v", q, want)
	}
}
