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

// The in-place variants must be bit-identical to the allocating ones,
// including across chunked streaming (shared history handling).
func TestFIRProcessIntoMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	taps := LowpassTaps(0.2, 31)
	a, b := NewFIR(taps), NewFIR(taps)
	dst := NewVec(257)
	for _, n := range []int{1, 7, 64, 257} {
		in := randVec(rng, n)
		want := a.Process(in)
		got := b.ProcessInto(dst, in)
		if len(want) != len(got) {
			t.Fatalf("length %d vs %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("block %d sample %d: %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestHalfBandProcessIntoMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := NewHalfBandDecimator(21), NewHalfBandDecimator(21)
	dst := NewVec(200)
	for _, n := range []int{5, 64, 33, 128} {
		in := randVec(rng, n)
		if got := b.OutLen(n); got > len(dst) {
			t.Fatalf("OutLen(%d) = %d", n, got)
		}
		want := a.Process(in)
		got := b.ProcessInto(dst, in)
		if len(want) != len(got) {
			t.Fatalf("chunk %d: length %d vs %d", n, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunk %d sample %d differs", n, i)
			}
		}
	}
}

func TestDecimationChainProcessIntoMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := NewDecimationChain(3, 21), NewDecimationChain(3, 21)
	dst := NewVec(64)
	for _, n := range []int{64, 17, 128} {
		in := randVec(rng, n)
		want := a.Process(in)
		got := b.ProcessInto(dst, in)
		if len(want) != len(got) {
			t.Fatalf("chunk %d: length %d vs %d", n, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunk %d sample %d differs", n, i)
			}
		}
	}
}

func TestDDCProcessIntoMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewDDC(0.1, 0.05, 63, 4)
	b := NewDDC(0.1, 0.05, 63, 4)
	dst := NewVec(100)
	for _, n := range []int{64, 30, 128, 3} {
		in := randVec(rng, n)
		predicted := b.OutLen(n)
		want := a.Process(in)
		got := b.ProcessInto(dst, in)
		if len(want) != len(got) || len(got) != predicted {
			t.Fatalf("chunk %d: length %d vs %d (predicted %d)", n, len(got), len(want), predicted)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunk %d sample %d differs", n, i)
			}
		}
	}
}

func TestDUCProcessIntoMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewDUC(0.15, 0.08, 63, 4)
	b := NewDUC(0.15, 0.08, 63, 4)
	dst := NewVec(512)
	for _, n := range []int{64, 30, 128, 3} {
		in := randVec(rng, n)
		predicted := b.OutLen(n)
		want := a.Process(in)
		got := b.ProcessInto(dst, in)
		if len(want) != len(got) || len(got) != predicted {
			t.Fatalf("chunk %d: length %d vs %d (predicted %d)", n, len(got), len(want), predicted)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunk %d sample %d differs", n, i)
			}
		}
	}
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

func TestPulseShaperAndMatchedFilterInto(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	syms := randVec(rng, 50)
	a, b := NewPulseShaper(0.35, 4, 10), NewPulseShaper(0.35, 4, 10)
	want := a.Process(syms)
	got := b.ProcessInto(NewVec(len(syms)*4), syms)
	if len(want) != len(got) {
		t.Fatalf("shaper length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("shaper sample %d differs", i)
		}
	}
	ma, mb := NewMatchedFilter(0.35, 4, 10), NewMatchedFilter(0.35, 4, 10)
	fw := ma.Process(want)
	fg := mb.ProcessInto(NewVec(len(got)), got)
	for i := range fw {
		if fw[i] != fg[i] {
			t.Fatalf("matched filter sample %d differs", i)
		}
	}
}

// Allocation regressions: the in-place hot loops must not allocate in
// steady state (after scratch buffers have grown to the block size).
func TestFIRProcessIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewFIR(LowpassTaps(0.2, 31))
	in, dst := randVec(rng, 512), NewVec(512)
	f.ProcessInto(dst, in) // warm the scratch
	if n := testing.AllocsPerRun(20, func() { f.ProcessInto(dst, in) }); n != 0 {
		t.Fatalf("FIR.ProcessInto allocates %.1f/op in steady state", n)
	}
}

func TestHalfBandProcessIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewHalfBandDecimator(21)
	in, dst := randVec(rng, 512), NewVec(256)
	d.ProcessInto(dst, in)
	if n := testing.AllocsPerRun(20, func() { d.ProcessInto(dst, in) }); n != 0 {
		t.Fatalf("HalfBandDecimator.ProcessInto allocates %.1f/op in steady state", n)
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

// Benchmarks documenting the allocs/op drop of the in-place hot loops
// versus the allocating originals (the FIR's are in this package's
// bench_test.go).
func BenchmarkHalfBandProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d := NewHalfBandDecimator(21)
	in := randVec(rng, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(in)
	}
}

func BenchmarkHalfBandProcessInto(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d := NewHalfBandDecimator(21)
	in, dst := randVec(rng, 1024), NewVec(512)
	d.ProcessInto(dst, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ProcessInto(dst, in)
	}
}
