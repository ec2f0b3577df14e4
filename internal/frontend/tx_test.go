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
	runs := [][]dsp.Span{{{Lo: 10, Hi: 20}, {Lo: 200, Hi: 256}}, nil, {{Lo: 0, Hi: 5}}}
	m.ProcessRunsInto(dst, carriers, runs)
	if n := testing.AllocsPerRun(20, func() { m.ProcessRunsInto(dst, carriers, runs) }); n != 0 {
		t.Fatalf("Mux.ProcessRunsInto allocates %.1f/op in steady state", n)
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

// scanMux is the Mux and DAC as they were before they followed a plan: a
// carrier whose block and filter history are all zero, found by a scan,
// only moves its oscillator and is left out of the sum; every other
// carrier is up-converted whole and added in carrier order; the DAC
// rounds every sample.
type scanMux struct {
	ducs  []*dsp.DUC
	quiet []bool // the carrier's last tail inputs were all zero
	tail  int    // taps per DUC branch, less one
}

func newScanMux(plan CarrierPlan, ntaps int) *scanMux {
	m := &scanMux{quiet: make([]bool, plan.Carriers), tail: (ntaps+plan.Decim-1)/plan.Decim - 1}
	for c := range m.quiet {
		m.ducs, m.quiet[c] = append(m.ducs, dsp.NewDUC(plan.Freq(c), plan.Spacing/2*0.9, ntaps, plan.Decim)), true
	}
	return m
}

func allZero(v dsp.Vec) bool {
	for _, s := range v {
		if s != 0 {
			return false
		}
	}
	return true
}

func (m *scanMux) process(carriers []dsp.Vec, fullScale, step float64) dsp.Vec {
	n := len(carriers[0])
	wide, up := dsp.NewVec(m.ducs[0].OutLen(n)), dsp.NewVec(m.ducs[0].OutLen(n))
	for c, duc := range m.ducs {
		if in := carriers[c]; m.quiet[c] && allZero(in) {
			duc.ProcessRunsInto(up, in, nil)
		} else {
			wide.Add(duc.ProcessInto(up, in))
			m.quiet[c] = allZero(in[n-m.tail:])
		}
	}
	for i, s := range wide {
		wide[i] = complex(refQuantize(real(s), fullScale, step), refQuantize(imag(s), fullScale, step))
	}
	return wide
}

// The planned MUX and DAC are the scanning ones, sample for sample (==,
// under which the sign of a zero does not count), over grids that are
// empty, full, one cell, the first or the last slot only, 5 % or 70 %
// occupied, on 1 to 6 carriers, frame after frame so DUC state and the
// plan carry over, with tail margins on either side of the DUC's tail,
// and into a block that held other samples.
func TestMuxRunsMatchScan(t *testing.T) {
	const slots, slotLen, bits, fullScale = 4, 1280, 12, 4.0
	step := 2 * fullScale / (1 << bits)
	fills := []func(rng *rand.Rand, c, s int) bool{
		func(*rand.Rand, int, int) bool { return false },
		func(*rand.Rand, int, int) bool { return true },
		func(rng *rand.Rand, c, s int) bool { return c == 0 && s == 2 },
		func(rng *rand.Rand, c, s int) bool { return s == 0 },
		func(rng *rand.Rand, c, s int) bool { return s == slots-1 },
		func(rng *rand.Rand, c, s int) bool { return rng.Float64() < 0.05 },
		func(rng *rand.Rand, c, s int) bool { return rng.Float64() < 0.7 },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for carriers := 1; carriers <= 6; carriers++ {
			plan := CarrierPlan{Carriers: carriers, Spacing: 0.15, Decim: 4}
			rng := rand.New(rand.NewSource(int64(41 + carriers)))
			m, ref, dac := NewMux(plan, 95), newScanMux(plan, 95), NewDAC(bits, fullScale)
			for frame := 0; frame < 3*len(fills); frame++ {
				fill := fills[rng.Intn(len(fills))]
				// A burst up to the end of the last slot, with a margin under
				// the DUC's tail, carries its tail into the next frame.
				n, waveLen := slots*slotLen+[]int{64, 10, 0}[frame%3], slotLen-rng.Intn(50)
				blocks, runs := make([]dsp.Vec, carriers), make([][]dsp.Span, carriers)
				for c := range blocks {
					blocks[c] = dsp.NewVec(n)
					for s := 0; s < slots; s++ {
						if fill(rng, c, s) {
							copy(blocks[c][s*slotLen:], randBlock(rng, waveLen))
							runs[c] = append(runs[c], dsp.Span{Lo: s * slotLen, Hi: s*slotLen + waveLen})
						}
					}
				}
				want := ref.process(blocks, fullScale, step)
				got := dsp.NewVec(len(want))
				for i := range got {
					got[i] = complex(7, -7)
				}
				got = m.ProcessRunsInto(got, blocks, runs, dac)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("GOMAXPROCS %d, %d carriers, frame %d, sample %d: planned %v, scan %v", procs, carriers, frame, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// refMux is the Mux as a sequential carrier-by-carrier sum: each busy
// carrier's DUC computes its Cover into a block of its own; the first
// busy carrier's block is the output, zero wherever it computed nothing;
// each later one is added over its Cover in carrier order; and the DAC
// converts every sample some carrier covered.
type refMux struct {
	ducs []*dsp.DUC
	l    int
}

func newRefMux(plan CarrierPlan, ntaps int) *refMux {
	m := &refMux{l: plan.Decim}
	for c := 0; c < plan.Carriers; c++ {
		m.ducs = append(m.ducs, dsp.NewDUC(plan.Freq(c), plan.Spacing/2*0.9, ntaps, plan.Decim))
	}
	return m
}

func (m *refMux) process(carriers []dsp.Vec, runs [][]dsp.Span, dac *DAC) dsp.Vec {
	n := len(carriers[0])
	out, covered, first := dsp.NewVec(n*m.l), make([]bool, n*m.l), true
	for c, duc := range m.ducs {
		cover := duc.Cover(nil, runs[c], n)
		up := dsp.NewVec(n * m.l)
		for i := range up {
			up[i] = complex(math.NaN(), 5) // a sample outside the Cover must not be read
		}
		duc.ProcessRunsInto(up, carriers[c], runs[c])
		for _, s := range cover {
			for i := s.Lo * m.l; i < s.Hi*m.l; i++ {
				if first {
					out[i] = up[i]
				} else {
					out[i] += up[i]
				}
				covered[i] = true
			}
		}
		first = first && len(cover) == 0
	}
	for i, s := range out {
		if covered[i] {
			out[i] = dac.ConvertInto(dsp.Vec{s}, dsp.Vec{s})[0]
		}
	}
	return out
}

// The tile-parallel Mux, summing and converting each tile in its own
// task, is the sequential carrier-by-carrier sum bit for bit, signs of
// zero included: at 1, 2 and 4 workers, on 3 and 6 carriers, over
// sparse, full and empty grids, with bursts that carry a filter tail
// into the next block and blocks that are no multiple of a tile, into a
// block that held other samples.
func TestMuxTilesMatchCarrierSum(t *testing.T) {
	const slotLen = 300
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, carriers := range []int{3, 6} {
			plan := CarrierPlan{Carriers: carriers, Spacing: 0.8 / float64(carriers), Decim: 4}
			rng := rand.New(rand.NewSource(int64(50 + carriers)))
			m, ref, dac := NewMux(plan, 95), newRefMux(plan, 95), NewDAC(12, 4)
			for frame := 0; frame < 24; frame++ {
				slots := 3 + frame%3
				n := slots*slotLen + []int{0, 17, 64}[frame%3]
				p := []float64{0.1, 1, 0, 0.4}[frame%4]
				blocks, runs := make([]dsp.Vec, carriers), make([][]dsp.Span, carriers)
				for c := range blocks {
					blocks[c] = dsp.NewVec(n)
					for s := 0; s < slots; s++ {
						if rng.Float64() >= p {
							continue
						}
						// A burst may run to the block's end: its tail goes on.
						lo, hi := s*slotLen, min((s+1)*slotLen-rng.Intn(40), n)
						if s == slots-1 && rng.Intn(2) == 0 {
							hi = n
						}
						copy(blocks[c][lo:hi], randBlock(rng, hi-lo))
						runs[c] = append(runs[c], dsp.Span{Lo: lo, Hi: hi})
					}
				}
				want := ref.process(blocks, runs, dac)
				got := dsp.NewVec(len(want))
				for i := range got {
					got[i] = complex(7, -7)
				}
				got = m.ProcessRunsInto(got, blocks, runs, dac)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("GOMAXPROCS %d, %d carriers, frame %d, sample %d: tiles %v, carrier sum %v", procs, carriers, frame, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
