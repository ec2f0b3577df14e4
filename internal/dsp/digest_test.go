package dsp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// Digests of the analog path: FNV-64a over the exact bits of every real
// and imaginary part the converters and the channel emit. A kernel
// change that claims to be bit-identical leaves them as they are; one
// that moves the last bit of any sample (a different re-anchor interval,
// a noise level off by a part in 10⁹) fails here.

// hashVec folds the bits of every part of v into h.
func hashVec(h hash.Hash64, v Vec) {
	var b [16]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(x)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(x)))
		h.Write(b[:])
	}
}

// planFreqs is the downlink plan at m carriers (traffic.DefaultPlan):
// the carrier frequencies and the banks' cutoff.
func planFreqs(m int) (freqs []float64, cutoff float64) {
	sp := min(0.8/float64(m), 0.2)
	for c := 0; c < m; c++ {
		freqs = append(freqs, (float64(c)-float64(m-1)/2)*sp)
	}
	return freqs, sp / 2 * 0.9
}

// Every carrier of the 3- and 6-carrier plans (frequency 0 included) up
// and back down, over consecutive blocks whose lengths are not multiples
// of the 256-sample anchor or the 1 024-sample tile.
func TestDUCDDCRoundTripDigest(t *testing.T) {
	want := map[int]uint64{3: 0xb1a013bb31a28aa6, 6: 0xc08a9d3bacf073b2}
	for _, m := range []int{3, 6} {
		h := fnv.New64a()
		rng := rand.New(rand.NewSource(int64(m)))
		freqs, cutoff := planFreqs(m)
		for _, f := range freqs {
			u, d := NewDUC(f, cutoff, 95, 4), NewDDC(f, cutoff, 95, 4)
			for _, n := range []int{300, 77, 513, 1000, 1345} {
				wide := ducOut(u, unitVec(rng, n))
				hashVec(h, wide)
				for _, c := range chunks(len(wide), 1500, 333, 2047) {
					hashVec(h, ddcOut(d, wide[:c]))
					wide = wide[c:]
				}
			}
		}
		if got := h.Sum64(); got != want[m] {
			t.Errorf("%d carriers: digest %#x, want %#x", m, got, want[m])
		}
	}
}

// The uplink channel with every impairment on, over consecutive burst
// blocks of one seeded instance (the drift carries from block to block).
func TestChannelDigest(t *testing.T) {
	const want = 0x263f8da7439917cf
	c := NewChannelWith(5, 8, 4)
	c.Gain, c.PhaseOffset, c.FreqOffset, c.FreqDrift, c.TimingOffset = 0.9, 0.4, 0.013, -2e-4, 1.37
	rng := rand.New(rand.NewSource(6))
	h := fnv.New64a()
	for _, n := range []int{1344, 1344, 700, 2049} {
		hashVec(h, c.ApplyInPlace(unitVec(rng, n)))
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest %#x, want %#x", got, uint64(want))
	}
}
