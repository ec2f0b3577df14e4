package traffic

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/frontend"
)

// The engine's ground receiver down-converts only the runs of slots that
// carried a sent burst, a chunk at a time. With the per-chunk worker
// wrapped, every chunk the engine converts over a mixed busy/sparse/idle
// schedule is checked, bit for bit, against the matching slice of a
// whole-carrier demultiplex of the same block, the runs are checked to
// cover every sent burst's window, and a sparse frame is checked to
// convert less than the grid.
func TestVerifyConvertsSentRunsOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(3, 4)
	cfg.EbN0dB = 9
	cfg.Verify = true
	e := newEngine(t, cfg, []Terminal{
		{ID: "steady", Beam: 0, Model: CBR{Cells: 1}},
		{ID: "bursty", Beam: 1, Model: OnOff{On: 1, Off: 2, Cells: 4}},
		{ID: "rare", Beam: 2, Model: OnOff{On: 1, Off: 4, Cells: 2}},
	}, "conv-r1/2-k9")

	var (
		mu         sync.Mutex
		whole      []dsp.Vec // the frame's whole-carrier demux, nil between frames
		converted  []int     // carrier-rate samples down-converted, per frame
		differ     int       // samples whose bits differ from the whole-carrier demux
		uncovered  int
		inner      = e.ground.downconvert
		innerCheck = e.ground.check
		carrierLen int
	)
	// Bursts are checked only after every run is converted, so the first
	// check ends the frame's conversions.
	e.ground.check = func(i int) {
		innerCheck(i)
		mu.Lock()
		whole = nil
		mu.Unlock()
	}
	e.ground.downconvert = func(i int) {
		inner(i)
		mu.Lock()
		defer mu.Unlock()
		v := e.ground
		if whole == nil {
			whole = frontend.NewDemux(e.cfg.Plan, 95).Process(v.wide)
			carrierLen = len(whole[0])
			converted = append(converted, 0)
			// Every sent burst's window lies inside the run it maps to.
			for _, b := range v.bursts {
				r := &v.runs[b.run] // other workers are writing base: read the bounds only
				lo := b.cell.Slot * v.slotLen
				if r.carrier != b.cell.Carrier || lo < r.lo || min(lo+v.slotLen+verifySlack, carrierLen) > r.hi {
					uncovered++
				}
			}
		}
		c := &v.chunks[i] // other workers are writing the rest of its run
		converted[len(converted)-1] += c.hi - c.lo
		for k, s := range c.base {
			w := whole[c.carrier][c.lo+k]
			if math.Float64bits(real(s)) != math.Float64bits(real(w)) || math.Float64bits(imag(s)) != math.Float64bits(imag(w)) {
				differ++
			}
		}
	}
	const frames = 12
	if err := e.RunFrames(frames); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep.DownlinkLost != 0 || rep.DownlinkBitErrs != 0 || rep.DeliveredPackets == 0 {
		t.Fatalf("%d delivered, %d lost on verify, %d bit errors", rep.DeliveredPackets, rep.DownlinkLost, rep.DownlinkBitErrs)
	}
	if differ != 0 || uncovered != 0 {
		t.Fatalf("%d run samples differ from the whole-carrier demux; %d sent bursts outside their run", differ, uncovered)
	}
	lo, hi := converted[0], converted[0]
	for _, c := range converted {
		lo, hi = min(lo, c), max(hi, c)
	}
	if grid := cfg.Frame.Carriers * carrierLen; hi > grid || lo*3 > grid {
		t.Fatalf("converted between %d and %d samples a frame on a %d-sample grid: work does not follow occupancy", lo, hi, grid)
	}
}

// A run converted verifyChunk samples a task is the run converted in one
// window, bit for bit: runs from the first sample (whose window has no
// history to reach back into) and from later slots, runs shorter than a
// chunk and runs that end at the block's end, on every carrier.
func TestChunkedWindowsMatchWholeRun(t *testing.T) {
	plan := DefaultPlan(3)
	rng := rand.New(rand.NewSource(61))
	wide := dsp.NewVec(plan.Decim * (4*1280 + 64))
	for i := range wide {
		wide[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	demux := frontend.NewDemux(plan, 95)
	n := len(wide) / plan.Decim
	for c := 0; c < plan.Carriers; c++ {
		for _, run := range [][2]int{{0, n}, {0, 1440}, {1280, 2720}, {2560, 2560 + verifyChunk/3}, {3840, n}} {
			lo, hi := run[0], run[1]
			whole := demux.ProcessWindowInto(dsp.NewVec(hi-lo), wide, c, lo, hi)
			chunked := dsp.NewVec(hi - lo)
			for a := lo; a < hi; a += verifyChunk {
				demux.ProcessWindowInto(chunked[a-lo:], wide, c, a, min(a+verifyChunk, hi))
			}
			for k := range whole {
				if math.Float64bits(real(chunked[k])) != math.Float64bits(real(whole[k])) ||
					math.Float64bits(imag(chunked[k])) != math.Float64bits(imag(whole[k])) {
					t.Fatalf("carrier %d run %v: sample %d is %v chunked, %v whole", c, run, lo+k, chunked[k], whole[k])
				}
			}
		}
	}
}
