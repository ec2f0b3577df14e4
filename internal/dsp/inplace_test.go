package dsp

import (
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestNCOMixIntoMatchesMix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randVec(rng, 100)
	want := NewNCO(0.12, 0.3).MixInto(NewVec(100), in)
	// dst == in aliasing is allowed.
	inCopy := in.Clone()
	got2 := NewNCO(0.12, 0.3).MixInto(inCopy, inCopy)
	for i := range want {
		if want[i] != got2[i] {
			t.Fatalf("aliased sample %d differs", i)
		}
	}
}

// Allocation regressions: the in-place hot loops must not allocate in
// steady state (after scratch buffers have grown to the block size).
func TestFIRProcessIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := newFIR(LowpassTaps(0.2, 31))
	in, dst := randVec(rng, 512), NewVec(512)
	f.processInto(dst, in) // warm the scratch
	if n := testing.AllocsPerRun(20, func() { f.processInto(dst, in) }); n != 0 {
		t.Fatalf("FIR processInto allocates %.1f/op in steady state", n)
	}
}

func TestDDCProcessIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDDC(0.1, 0.05, 63, 4)
	in, dst := randVec(rng, 512), NewVec(128)
	d.ProcessInto(dst, in)
	if n := testing.AllocsPerRun(20, func() { d.ProcessInto(dst, in) }); n != 0 {
		t.Fatalf("DDC.ProcessInto allocates %.1f/op in steady state", n)
	}
}

func TestDUCProcessIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := NewDUC(0.15, 0.08, 63, 4)
	in, dst := randVec(rng, 256), NewVec(1024)
	u.ProcessInto(dst, in)
	if n := testing.AllocsPerRun(20, func() { u.ProcessInto(dst, in) }); n != 0 {
		t.Fatalf("DUC.ProcessInto allocates %.1f/op in steady state", n)
	}
}

// The block pool must recycle: a Get after a Put of sufficient capacity
// must not allocate sample storage.
func TestVecPoolRecycles(t *testing.T) {
	v := GetVec(256)
	PutVec(v)
	if n := testing.AllocsPerRun(50, func() { PutVec(GetVec(256)) }); n != 0 {
		t.Fatalf("pool round-trip allocates %.1f/op", n)
	}
}

// A size class full of blocks too small for a request still serves it
// once the caller's own block comes back: with the class filled at its
// smallest capacity, a round trip at its largest length stops
// allocating after the first.
func TestVecPoolServesEveryLengthOfAClass(t *testing.T) {
	const lo, hi = 1 << 10, 1<<11 - 1 // the capacities of one size class
	for recycled(lo) != nil {         // empty the class
	}
	for i := 0; i < vecClassKeep; i++ {
		PutVec(make(Vec, lo))
	}
	if n := testing.AllocsPerRun(20, func() { PutVec(GetVec(hi)) }); n != 0 {
		t.Fatalf("a %d-sample round trip allocates %.1f/op in a class full of %d-sample blocks", hi, n, lo)
	}
}
