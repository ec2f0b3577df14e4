package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// sameValue reports whether a and b are the same value part for part:
// equal with equal signs (so −0 is not +0), or both NaN. A NaN's payload
// may follow the operand order the compiler picks, so it is not held.
func sameValue(a, b complex128) bool {
	same := func(x, y float64) bool {
		return x == y && math.Signbit(x) == math.Signbit(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// checkMixAt mixes n samples of seeded noise at stream offset off with
// mixAt (in place when alias) and with refMixAt, and fails on the first
// sample whose bits differ. Every seventh input sample has real part x.
func checkMixAt(t *testing.T, freq, phase float64, off int64, n int, alias bool, seed int64, x float64) {
	t.Helper()
	in := unitVec(rand.New(rand.NewSource(seed)), n)
	for i := 0; i < n; i += 7 {
		in[i] = complex(x, imag(in[i]))
	}
	o := &NCO{freq: freq, phase: phase}
	want := NewVec(n)
	refMixAt(o, want, in, off)
	got := NewVec(n)
	if alias {
		got = in
	}
	o.mixAt(got, in, off)
	for i := range want {
		if !sameValue(got[i], want[i]) {
			t.Fatalf("freq %g phase %g offset %d, %d samples (in place %v): sample %d is %v, one chain gives %v",
				freq, phase, off, n, alias, i, got[i], want[i])
		}
	}
}

// The interleaved chains are the one-chain loop bit for bit, across the
// four-block groups and their tails, at frequency 0 and ±½, from offsets
// far down the stream, in place and not.
func TestMixAtMatchesOneChain(t *testing.T) {
	freqs := []float64{0, math.Copysign(0, -1), 0.2, -0.8 / 6, 0.5, -0.5, 5e-324, 0.1234}
	for _, f := range freqs {
		for _, ph := range []float64{0, 0.7} {
			for _, off := range []int64{0, 255, 1 << 40} {
				for _, n := range []int{0, 1, 255, 256, 257, 1023, 1024, 1025, 1344, 2048, 4095, 5000} {
					checkMixAt(t, f, ph, off, n, false, int64(n), 0.5)
					checkMixAt(t, f, ph, off, n, true, int64(n), math.Copysign(0, -1))
				}
			}
		}
	}
}

// FuzzNCOMix holds mixAt to the one-chain loop on arbitrary frequency,
// phase and input bit patterns, offsets up to 2⁴⁰ and lengths up to 5 000.
func FuzzNCOMix(f *testing.F) {
	for _, fr := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 5e-324, -5e-324, 0.2} {
		f.Add(math.Float64bits(fr), math.Float64bits(0.3), uint64(1<<40), uint16(1344), false, int64(1), math.Float64bits(1))
		f.Add(math.Float64bits(fr), uint64(0), uint64(0), uint16(4097), true, int64(2), math.Float64bits(math.Inf(-1)))
	}
	f.Fuzz(func(t *testing.T, freq, phase, off uint64, n uint16, alias bool, seed int64, x uint64) {
		checkMixAt(t, math.Float64frombits(freq), math.Float64frombits(phase), int64(off%(1<<40+1)),
			int(n%5001), alias, seed, math.Float64frombits(x))
	})
}
