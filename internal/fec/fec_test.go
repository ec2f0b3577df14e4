package fec

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

// noisyLLR maps bits to BPSK, adds Gaussian noise at the given Eb/N0 (dB)
// accounting for code rate, and returns channel LLRs.
func noisyLLR(rng *rand.Rand, bits []byte, ebn0dB, rate float64) []float64 {
	esn0 := math.Pow(10, ebn0dB/10) * rate // Es/N0 per coded bit
	sigma2 := 1 / (2 * esn0)
	sigma := math.Sqrt(sigma2)
	llr := make([]float64, len(bits))
	for i, b := range bits {
		x := 1.0
		if b == 1 {
			x = -1
		}
		y := x + rng.NormFloat64()*sigma
		llr[i] = 2 * y / sigma2
	}
	return llr
}

func TestUncodedRoundTrip(t *testing.T) {
	u := Uncoded{}
	info := []byte{0, 1, 1, 0, 1}
	enc := u.Encode(info)
	dec := u.Decode(HardLLR(enc))
	if CountBitErrors(info, dec) != 0 {
		t.Fatal("uncoded round trip failed")
	}
	if u.Rate() != 1 || u.EncodedLen(5) != 5 || u.Name() != "uncoded" {
		t.Fatal("uncoded metadata")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := CRC16CCITT([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %04x want 29B1", got)
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "123456789", "satellite payload reconfiguration"} {
		if got, want := CRC32IEEE([]byte(s)), crc32.ChecksumIEEE([]byte(s)); got != want {
			t.Fatalf("CRC32(%q) = %08x want %08x", s, got, want)
		}
	}
}

func TestAppendCheckCRC16(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	frame := AppendCRC16(data)
	payload, ok := CheckCRC16(frame)
	if !ok || CountBitErrors(payload, data) != 0 {
		t.Fatal("CRC16 frame round trip")
	}
	frame[1] ^= 0x40
	if _, ok := CheckCRC16(frame); ok {
		t.Fatal("corruption not detected")
	}
	if _, ok := CheckCRC16([]byte{1}); ok {
		t.Fatal("short frame must fail")
	}
}

func TestPropertyCRC16DetectsSingleBitFlips(t *testing.T) {
	f := func(data []byte, pos uint16) bool {
		if len(data) == 0 {
			return true
		}
		frame := AppendCRC16(data)
		i := int(pos) % (len(frame) * 8)
		frame[i/8] ^= 1 << (i % 8)
		_, ok := CheckCRC16(frame)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvEncodeKnownLength(t *testing.T) {
	c := UMTSConvHalf()
	if c.NumStates() != 256 {
		t.Fatal("UMTS K=9 metadata")
	}
	enc := c.Encode(make([]byte, 10))
	if len(enc) != c.EncodedLen(10) || len(enc) != (10+8)*2 {
		t.Fatalf("encoded length %d", len(enc))
	}
	// All-zero input must give all-zero output (feed-forward, zero tail).
	for i, b := range enc {
		if b != 0 {
			t.Fatalf("nonzero output at %d for zero input", i)
		}
	}
}

func TestConvRoundTripNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*ConvCode{UMTSConvHalf(), UMTSConvThird()} {
		for _, n := range []int{1, 17, 100} {
			info := randBits(rng, n)
			dec := c.Decode(HardLLR(c.Encode(info)))
			if CountBitErrors(info, dec) != 0 {
				t.Fatalf("%s n=%d noiseless round trip failed", c.Name(), n)
			}
		}
	}
}

func TestConvCorrectsErrors(t *testing.T) {
	// K=9 rate 1/2 has free distance 12: it must correct several
	// well-separated hard errors in one block.
	rng := rand.New(rand.NewSource(2))
	c := UMTSConvHalf()
	info := randBits(rng, 200)
	llr := HardLLR(c.Encode(info))
	for _, pos := range []int{10, 80, 150, 260, 350} {
		llr[pos] = -llr[pos]
	}
	dec := c.Decode(llr)
	if CountBitErrors(info, dec) != 0 {
		t.Fatal("failed to correct separated errors")
	}
}

func TestConvCodingGain(t *testing.T) {
	// At Eb/N0 = 4 dB, coded BER must be well below uncoded BER.
	rng := rand.New(rand.NewSource(3))
	c := UMTSConvHalf()
	const n, trials = 500, 20
	var codedErr, uncodedErr, total int
	for tr := 0; tr < trials; tr++ {
		info := randBits(rng, n)
		llr := noisyLLR(rng, c.Encode(info), 4, 0.5)
		codedErr += CountBitErrors(info, c.Decode(llr))
		ullr := noisyLLR(rng, info, 4, 1)
		uncodedErr += CountBitErrors(info, Uncoded{}.Decode(ullr))
		total += n
	}
	codedBER := float64(codedErr) / float64(total)
	uncodedBER := float64(uncodedErr) / float64(total)
	if uncodedBER < 0.005 || uncodedBER > 0.05 {
		t.Fatalf("uncoded BER sanity: %g", uncodedBER)
	}
	if codedBER > uncodedBER/5 {
		t.Fatalf("insufficient coding gain: coded %g uncoded %g", codedBER, uncodedBER)
	}
}

func TestConvRateThirdBeatsHalfAtLowSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	half, third := UMTSConvHalf(), UMTSConvThird()
	const n, trials = 500, 30
	var e2, e3 int
	for tr := 0; tr < trials; tr++ {
		info := randBits(rng, n)
		e2 += CountBitErrors(info, half.Decode(noisyLLR(rng, half.Encode(info), 2, 0.5)))
		e3 += CountBitErrors(info, third.Decode(noisyLLR(rng, third.Encode(info), 2, 1.0/3)))
	}
	if e3 >= e2 {
		t.Fatalf("rate 1/3 (%d errs) should beat rate 1/2 (%d errs) at 2 dB", e3, e2)
	}
}

func TestViterbiFallbackOnGarbage(t *testing.T) {
	// Random LLRs must not panic and must return the right length.
	rng := rand.New(rand.NewSource(5))
	c := UMTSConvHalf()
	llr := make([]float64, c.EncodedLen(50))
	for i := range llr {
		llr[i] = rng.NormFloat64()
	}
	if got := c.Decode(llr); len(got) != 50 {
		t.Fatalf("decode length %d", len(got))
	}
}

func TestInterleaverBijective(t *testing.T) {
	for _, n := range []int{1, 2, 40, 320} {
		il := NewRandomInterleaver(n)
		if len(il.perm) != n {
			t.Fatal("length")
		}
		seen := make([]bool, n)
		for _, p := range il.perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("n=%d not a permutation", n)
			}
			seen[p] = true
		}
		for i, p := range il.perm {
			if il.inv[p] != i {
				t.Fatalf("n=%d: inv is not the inverse of perm at %d", n, i)
			}
		}
	}
}

func TestInterleaverDeterministic(t *testing.T) {
	a, b := NewRandomInterleaver(64), NewRandomInterleaver(64)
	for i := 0; i < 64; i++ {
		if a.perm[i] != b.perm[i] {
			t.Fatal("interleaver must be reproducible from block length")
		}
	}
}

func TestRSCTermination(t *testing.T) {
	// After encoding any block plus 3 termination steps the register is 0.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		s := 0
		for _, u := range randBits(rng, 20) {
			_, s = rscStep(s, u)
		}
		for i := 0; i < 3; i++ {
			_, s = rscStep(s, rscTerminationInput(s))
		}
		if s != 0 {
			t.Fatalf("trial %d: not terminated, state %d", trial, s)
		}
	}
}

func TestTurboRoundTripNoiseless(t *testing.T) {
	tc := NewTurbo(4)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{8, 40, 320} {
		info := randBits(rng, n)
		enc := tc.Encode(info)
		if len(enc) != tc.EncodedLen(n) {
			t.Fatalf("encoded length %d want %d", len(enc), tc.EncodedLen(n))
		}
		dec := tc.Decode(HardLLR(enc))
		if CountBitErrors(info, dec) != 0 {
			t.Fatalf("n=%d noiseless turbo round trip failed", n)
		}
	}
}

func TestTurboBeatsConvolutional(t *testing.T) {
	// At 1.5 dB and moderate block length the turbo code must have fewer
	// errors than the convolutional code — the coding-gain ordering the
	// decoder-reconfiguration experiment (E8) relies on.
	rng := rand.New(rand.NewSource(8))
	tc := NewTurbo(6)
	cc := UMTSConvThird()
	const n, trials = 320, 12
	var te, ce int
	for tr := 0; tr < trials; tr++ {
		info := randBits(rng, n)
		te += CountBitErrors(info, tc.Decode(noisyLLR(rng, tc.Encode(info), 1.5, 1.0/3)))
		ce += CountBitErrors(info, cc.Decode(noisyLLR(rng, cc.Encode(info), 1.5, 1.0/3)))
	}
	if te >= ce {
		t.Fatalf("turbo (%d errs) should beat convolutional (%d errs) at 1.5 dB", te, ce)
	}
}

func TestTurboIterationsImprove(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, trials = 320, 10
	errsAt := func(iters int) int {
		r := rand.New(rand.NewSource(10))
		tc := NewTurbo(iters)
		total := 0
		for tr := 0; tr < trials; tr++ {
			info := randBits(r, n)
			total += CountBitErrors(info, tc.Decode(noisyLLR(r, tc.Encode(info), 1.0, 1.0/3)))
		}
		return total
	}
	_ = rng
	e1, e6 := errsAt(1), errsAt(6)
	if e6 > e1 {
		t.Fatalf("6 iterations (%d errs) should not be worse than 1 (%d errs)", e6, e1)
	}
}

func TestCodecInterfaceCompliance(t *testing.T) {
	codecs := []Codec{Uncoded{}, UMTSConvHalf(), UMTSConvThird(), UMTSConvTwoThirds(), NewTurbo(4)}
	rng := rand.New(rand.NewSource(11))
	stale := bytes.Repeat([]byte{7}, 512)
	for _, c := range codecs {
		info := randBits(rng, 64)
		enc := c.Encode(info)
		if len(enc) != c.EncodedLen(64) {
			t.Fatalf("%s EncodedLen mismatch", c.Name())
		}
		if c.Rate() <= 0 || c.Rate() > 1 {
			t.Fatalf("%s rate %g", c.Name(), c.Rate())
		}
		dec := c.Decode(HardLLR(enc))
		if CountBitErrors(info, dec) != 0 {
			t.Fatalf("%s noiseless round trip", c.Name())
		}
		// AppendDecode writes every bit it appends: a reused buffer's
		// stale bytes beyond the prefix never show.
		llr := noisyLLR(rng, enc, 1, c.Rate())
		got := c.AppendDecode(stale[:3], llr)
		if want := c.Decode(llr); !bytes.Equal(got[:3], []byte{7, 7, 7}) || !bytes.Equal(got[3:], want) {
			t.Fatalf("%s: AppendDecode into a used buffer differs from Decode", c.Name())
		}
	}
}

func TestCountBitErrorsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CountBitErrors([]byte{1}, []byte{1, 0})
}
