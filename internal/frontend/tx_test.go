package frontend

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dsp"
)

func randBlock(rng *rand.Rand, n int) dsp.Vec {
	v := dsp.NewVec(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestMuxProcessIntoRejectsMismatchedBlocks(t *testing.T) {
	plan := CarrierPlan{Carriers: 2, Spacing: 0.2, Decim: 2}
	m := NewMux(plan, 31)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on carrier block length mismatch")
		}
	}()
	m.ProcessInto(dsp.NewVec(128), []dsp.Vec{dsp.NewVec(32), dsp.NewVec(16)})
}

// Steady-state allocation regression for the Tx hot path. The worker
// pool spawns goroutines when GOMAXPROCS > 1, so the zero-alloc contract
// is stated for the inline (single-worker) schedule — the same DSP work
// every worker executes. The race detector deliberately defeats
// sync.Pool reuse, so the count is only meaningful without it.
func TestMuxProcessIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool recycling is randomized under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	plan := CarrierPlan{Carriers: 3, Spacing: 0.2, Decim: 4}
	m := NewMux(plan, 63)
	rng := rand.New(rand.NewSource(32))
	carriers := make([]dsp.Vec, plan.Carriers)
	for c := range carriers {
		carriers[c] = randBlock(rng, 256)
	}
	dst := dsp.NewVec(m.OutLen(256))
	m.ProcessInto(dst, carriers) // warm the DUC scratch and the block pool
	if n := testing.AllocsPerRun(20, func() { m.ProcessInto(dst, carriers) }); n != 0 {
		t.Fatalf("Mux.ProcessInto allocates %.1f/op in steady state", n)
	}
}

func TestDACConvertIntoMatchesConvert(t *testing.T) {
	dac := NewDAC(12, 4)
	rng := rand.New(rand.NewSource(33))
	in := randBlock(rng, 128)
	want := dac.ConvertInto(dsp.NewVec(len(in)), in)
	// In-place conversion is allowed.
	aliased := in.Clone()
	dac.ConvertInto(aliased, aliased)
	for i := range want {
		if want[i] != aliased[i] {
			t.Fatalf("aliased sample %d differs", i)
		}
	}
}

// refQuantize is the converter's rounding without the exact-zero
// bypass: clip to the outermost levels, then round to the step grid.
func refQuantize(x, fullScale, step float64) float64 {
	x = min(max(x, -fullScale+step/2), fullScale-step/2)
	return math.Round(x/step) * step
}

// An exact-zero component skips the rounding; the output must be what
// the rounding gives, ±0 sign included, bit for bit.
func TestDACZeroBypassMatchesFormula(t *testing.T) {
	const bits, fullScale = 12, 4.0
	step := 2 * fullScale / (1 << bits)
	dac := NewDAC(bits, fullScale)
	rng := rand.New(rand.NewSource(40))
	edges := []float64{0, math.Copysign(0, -1), fullScale, -fullScale, fullScale - step/2, -fullScale + step/2,
		fullScale * 3, -fullScale * 3, step / 2, -step / 2, step, math.SmallestNonzeroFloat64}
	comp := func() float64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.NormFloat64() * fullScale / 2
	}
	for trial := 0; trial < 50; trial++ {
		in := dsp.NewVec(256)
		for i := range in {
			in[i] = complex(comp(), comp())
		}
		aliased := in.Clone()
		out := dac.ConvertInto(dsp.NewVec(len(in)), in)
		dac.ConvertInto(aliased, aliased)
		for i, s := range in {
			want := [2]float64{refQuantize(real(s), fullScale, step), refQuantize(imag(s), fullScale, step)}
			for _, got := range []complex128{out[i], aliased[i]} {
				if math.Float64bits(real(got)) != math.Float64bits(want[0]) || math.Float64bits(imag(got)) != math.Float64bits(want[1]) {
					t.Fatalf("sample %v: got %v, the rounding gives %v", s, got, want)
				}
			}
		}
	}
}

func TestDACConvertIntoAllocs(t *testing.T) {
	dac := NewDAC(12, 4)
	rng := rand.New(rand.NewSource(34))
	in := randBlock(rng, 256)
	dst := dsp.NewVec(256)
	if n := testing.AllocsPerRun(20, func() { dac.ConvertInto(dst, in) }); n != 0 {
		t.Fatalf("DAC.ConvertInto allocates %.1f/op", n)
	}
}
