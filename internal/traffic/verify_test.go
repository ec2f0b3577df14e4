package traffic

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/frontend"
)

// The engine's ground receiver down-converts only the runs of slots that
// carried a sent burst. With the per-run worker wrapped, every run the
// engine converts over a mixed busy/sparse/idle schedule is checked
// against the matching slice of a whole-carrier demultiplex of the same
// block, the runs are checked to cover every sent burst's window, and a
// sparse frame is checked to convert less than the grid.
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
		worst      float64
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
			for j, sc := range v.sent {
				r := &v.runs[v.runOf[j]] // other workers are writing base: read the bounds only
				lo := sc.cell.Slot * v.slotLen
				if r.carrier != sc.cell.Carrier || lo < r.lo || min(lo+v.slotLen+verifySlack, carrierLen) > r.hi {
					uncovered++
				}
			}
		}
		r := &v.runs[i]
		converted[len(converted)-1] += r.hi - r.lo
		for k, s := range r.base {
			d := s - whole[r.carrier][r.lo+k]
			worst = math.Max(worst, math.Hypot(real(d), imag(d)))
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
	if worst > 1e-12 || uncovered != 0 {
		t.Fatalf("runs differ from the whole-carrier demux by up to %g; %d sent bursts outside their run", worst, uncovered)
	}
	lo, hi := converted[0], converted[0]
	for _, c := range converted {
		lo, hi = min(lo, c), max(hi, c)
	}
	if grid := cfg.Frame.Carriers * carrierLen; hi > grid || lo*3 > grid {
		t.Fatalf("converted between %d and %d samples a frame on a %d-sample grid: work does not follow occupancy", lo, hi, grid)
	}
}
