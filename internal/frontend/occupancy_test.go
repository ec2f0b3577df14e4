package frontend_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Work follows the plan on both sides of the wideband block: the Mux
// computes only the runs it is given, the Demux converts only the
// windows asked for. These tests hold both to the whole-grid computation.

func noise(rng *rand.Rand, n int) dsp.Vec {
	v := dsp.NewVec(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(math.Sqrt(0.5), 0)
	}
	return v
}

// Each carrier walks its own busy/idle sequence, busy → idle → busy →
// idle among them: the Mux's wideband block equals, sample for sample,
// the carrier-order sum of stand-alone DUC streams that were handed every
// block whole — so a skipped carrier kept its filter tail (the first idle
// block after a busy one is not skipped) and its oscillator phase (the
// busy block after a skipped one lands where it should).
func TestMuxIdleCarrierSkipMatchesUnskippedSum(t *testing.T) {
	plan := frontend.CarrierPlan{Carriers: 4, Spacing: 0.2, Decim: 4}
	const n = 600
	busy := [][]bool{
		{true, false, true, false, false, true},
		{false, false, true, true, false, false},
		{true, true, true, true, true, true},
		{false, false, false, false, false, false},
	}
	rng := rand.New(rand.NewSource(31))
	mux := frontend.NewMux(plan, 95)
	cutoff := plan.Spacing / 2 * 0.9
	ducs := make([]*dsp.DUC, plan.Carriers)
	for c := range ducs {
		ducs[c] = dsp.NewDUC(plan.Freq(c), cutoff, 95, plan.Decim)
	}
	got, up := dsp.NewVec(mux.OutLen(n)), dsp.NewVec(mux.OutLen(n))
	for f := range busy[0] {
		carriers, runs := make([]dsp.Vec, plan.Carriers), make([][]dsp.Span, plan.Carriers)
		for c := range carriers {
			carriers[c] = dsp.NewVec(n)
			if busy[c][f] {
				copy(carriers[c][n/2:], noise(rng, n/2))
				runs[c] = []dsp.Span{{Lo: n / 2, Hi: n}}
			}
		}
		mux.ProcessRunsInto(got, carriers, runs)
		want := dsp.NewVec(len(got))
		for c, duc := range ducs {
			want.Add(duc.ProcessInto(up, carriers[c]))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d sample %d: mux %v, unskipped sum %v", f, i, got[i], want[i])
			}
		}
	}
}

func rms(a, b dsp.Vec) float64 {
	var e float64
	for i := range a {
		d := a[i] - b[i]
		e += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(e / float64(len(a)))
}

// A window is the matching slice of the whole-carrier down-conversion.
func TestDemuxWindowMatchesProcess(t *testing.T) {
	plan := frontend.CarrierPlan{Carriers: 3, Spacing: 0.2, Decim: 4}
	wide := noise(rand.New(rand.NewSource(32)), 20736)
	whole := frontend.NewDemux(plan, 95).Process(wide)
	demux := frontend.NewDemux(plan, 95)
	for c := range whole {
		n := len(whole[c])
		for _, w := range [][2]int{{0, n}, {0, 300}, {1280, 1280 + 1440}, {n - 7, n}} {
			got := demux.ProcessWindowInto(dsp.NewVec(w[1]-w[0]), wide, c, w[0], w[1])
			if len(got) != w[1]-w[0] {
				t.Fatalf("carrier %d window %v: %d samples", c, w, len(got))
			}
			if d := rms(got, whole[c][w[0]:w[1]]); d > 1e-12 {
				t.Fatalf("carrier %d window %v: RMS %g from the whole carrier", c, w, d)
			}
		}
	}
}

// verdict is what ground verification decides about one sent burst.
type verdict struct {
	found   bool
	bitErrs int
}

func verifyBurst(dem *modem.BurstDemodulator, codec fec.Codec, rx dsp.Vec, info []byte) verdict {
	res := dem.Demodulate(rx)
	if !res.Found {
		return verdict{}
	}
	dec := codec.Decode(fec.HardLLR(modem.HardBits(res.Soft))[:codec.EncodedLen(len(info))])
	return verdict{found: true, bitErrs: fec.CountBitErrors(info, dec[:len(info)])}
}

// Every registered preset's downlink — its carrier plan, slot geometry,
// burst format and codec — for four frames of differently occupied
// grids through the real transmitter: verifying from slot-run windows
// decides every burst exactly as verifying from the whole-carrier
// streaming demux does, and both find every burst clean.
func TestPresetsWindowedVerifyMatchesWholeCarrier(t *testing.T) {
	const slack = 160 // the engine's verify window past the slot
	for _, name := range scenario.PresetNames() {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Traffic.Verify = false
			sess, err := scenario.NewSession(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			pl, cfg := sess.Payload(), sess.Engine().Config()
			codec, err := pl.Codec()
			if err != nil {
				t.Fatal(err)
			}
			k := traffic.InfoBitsFor(codec, pl.BurstFormat().PayloadBits())
			tx := payload.NewTransmitter(pl, cfg.Plan)
			streaming, windowed := frontend.NewDemux(cfg.Plan, 95), frontend.NewDemux(cfg.Plan, 95)
			dem := modem.NewBurstDemodulator(pl.BurstFormat(), 0.35, cfg.Plan.Decim, 10, modem.TimingOerderMeyr)
			slotLen := cfg.Frame.SlotSymbols * cfg.Plan.Decim
			rng := rand.New(rand.NewSource(33))
			// Full, one cell, alternate slots, then whatever a coin gives.
			fills := []func(c, s int) bool{
				func(c, s int) bool { return true },
				func(c, s int) bool { return c == cfg.Frame.Carriers-1 && s == cfg.Frame.Slots-1 },
				func(c, s int) bool { return (c+s)%2 == 0 },
				func(c, s int) bool { return rng.Intn(3) == 0 },
			}
			for f, fill := range fills {
				grid := make([][][]byte, cfg.Frame.Carriers)
				for c := range grid {
					grid[c] = make([][]byte, cfg.Frame.Slots)
					for s := range grid[c] {
						if !fill(c, s) {
							continue
						}
						grid[c][s] = make([]byte, k)
						for i := range grid[c][s] {
							grid[c][s][i] = byte(rng.Intn(2))
						}
					}
				}
				wide, err := tx.TransmitFrameGrid(cfg.Frame, grid)
				if err != nil {
					t.Fatal(err)
				}
				whole := streaming.Process(wide)
				for c := range grid {
					carrierLen := len(whole[c])
					for s := 0; s < cfg.Frame.Slots; s++ {
						if grid[c][s] == nil {
							continue
						}
						// The run of occupied slots starting here, as the
						// engine merges them.
						e := s
						for e+1 < cfg.Frame.Slots && grid[c][e+1] != nil {
							e++
						}
						lo, hi := s*slotLen, min((e+1)*slotLen+slack, carrierLen)
						run := windowed.ProcessWindowInto(dsp.NewVec(hi-lo), wide, c, lo, hi)
						for ; s <= e; s++ {
							start := s * slotLen
							end := min(start+slotLen+slack, carrierLen)
							want := verifyBurst(dem, codec, whole[c][start:end], grid[c][s])
							got := verifyBurst(dem, codec, run[start-lo:end-lo], grid[c][s])
							if got != want || !got.found || got.bitErrs != 0 {
								t.Fatalf("frame %d cell (%d,%d): windowed %+v, whole-carrier %+v", f, c, s, got, want)
							}
						}
						s = e
					}
					dsp.PutVec(whole[c])
				}
				dsp.PutVec(wide)
			}
		})
	}
}
