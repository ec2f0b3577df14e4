package campaign

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"repro/internal/dsp"
	"repro/internal/payload"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// sweepSpec is the shape of the benchmark's campaign-sweep workload: the
// impaired preset's six terminals without the Doppler drift, at 9 dB,
// swept over four Eb/N0 points with runs seeds each.
func sweepSpec(runs, frames int) Spec {
	base := scenario.Impaired()
	base.Name = "campaign-sweep-base"
	base.Frames = frames
	base.Traffic.EbN0dB = 9
	base.Terminals[2].Channel.Drift = 0
	return Spec{
		Name:         "campaign-sweep",
		Base:         &base,
		Seed:         7041,
		RunsPerPoint: runs,
		Axes:         []AxisSpec{{Kind: "ebn0", Values: []any{3.0, 6.0, 9.0, 12.0}}},
		Reducers:     []string{"ber", "goodput", "latency", "drops", "uplink_failures"},
	}
}

// runSweep executes sp and returns its artifact bytes and every run's
// report (wall time zeroed) by run index: the reports carry the ground
// verify counters, which no reducer folds into the artifact.
func runSweep(t *testing.T, sp *Spec, workers int) (string, []string) {
	t.Helper()
	reports := make([]string, sp.RunsPerPoint*len(sp.Axes[0].Values))
	a, err := Execute(context.Background(), sp, Config{Workers: workers, OnRun: func(o RunOutcome) {
		if o.Report == nil {
			t.Errorf("run %d: %v", o.Run.Index, o.Err)
			return
		}
		r := *o.Report
		r.WallSeconds = 0
		data, err := json.Marshal(&r)
		if err != nil {
			t.Error(err)
		}
		reports[o.Run.Index] = string(data)
	}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(data), reports
}

// poisonBlocks empties the block allocator's lists of blocks at least n
// long, for each n of lens, then fills them with NaN blocks of those
// lengths, newest the first length's: it asks first.
func poisonBlocks(lens ...int) {
	for _, n := range lens {
		for i := 0; i < 64; i++ {
			_ = dsp.GetVec(n)
		}
	}
	for k := len(lens) - 1; k >= 0; k-- {
		n := lens[k]
		for i := 0; i < 8; i++ {
			v := dsp.NewVec(n)
			for i := range v {
				v[i] = complex(math.NaN(), math.NaN())
			}
			dsp.PutVec(v)
		}
	}
}

// TestRecycledBlocksDoNotLeak holds a campaign's output to be the same
// whatever the block allocator hands its sessions: frame buffers that
// come back from a closed session, or NaN-filled blocks left by anyone,
// are cleared where a session takes them.
func TestRecycledBlocksDoNotLeak(t *testing.T) {
	sp := sweepSpec(1, 6)
	tr := sp.Base.Traffic
	slots := tr.Slots * tr.SlotSymbols
	composerLen := slots * 4 // the terminals' oversampling
	carrierLen := slots*traffic.DefaultPlan(tr.Carriers).Decim + payload.TxTailMargin
	for _, workers := range []int{1, 2} {
		clean, cleanReports := runSweep(t, &sp, workers)
		poisonBlocks(composerLen, carrierLen)
		dirty, dirtyReports := runSweep(t, &sp, workers)
		if dirty != clean {
			t.Errorf("workers %d: artifact differs after NaN blocks were recycled", workers)
		}
		for i := range cleanReports {
			if dirtyReports[i] != cleanReports[i] {
				t.Errorf("workers %d run %d: report differs after NaN blocks were recycled:\n%s\n%s",
					workers, i, cleanReports[i], dirtyReports[i])
			}
		}
	}
}

// TestRecycledScratchDoesNotLeak holds a campaign's output to be the
// same when the per-call scratch its sessions take from the block
// allocator comes back NaN-filled: the copy the uplink channel's
// fractional delay interpolates from (a slot's waveform, and the
// impaired terminals have timing offsets) and the MUX's tile sum.
func TestRecycledScratchDoesNotLeak(t *testing.T) {
	sp := sweepSpec(1, 6)
	tr := sp.Base.Traffic
	slotWave := tr.SlotSymbols * 4 // the terminals' oversampling
	tile := dsp.DUCTile * traffic.DefaultPlan(tr.Carriers).Decim
	for _, workers := range []int{1, 2} {
		clean, cleanReports := runSweep(t, &sp, workers)
		poisonBlocks(slotWave, tile)
		dirty, dirtyReports := runSweep(t, &sp, workers)
		if dirty != clean {
			t.Errorf("workers %d: artifact differs after NaN scratch was recycled", workers)
		}
		for i := range cleanReports {
			if dirtyReports[i] != cleanReports[i] {
				t.Errorf("workers %d run %d: report differs after NaN scratch was recycled:\n%s\n%s",
					workers, i, cleanReports[i], dirtyReports[i])
			}
		}
	}
}

// TestCampaignAllocBudget pins the bytes a campaign-sweep-shaped
// campaign allocates per frame once the process is warm: its sessions
// take the frame buffers the last closed session gave back, and the
// FPGA designs are synthesised once per process. That measured 16 649–
// 16 805 bytes per frame over twenty go test ./... runs, where
// rebuilding both every session cost about 59 000; the budget is about
// 1.2x the highest reading.
func TestCampaignAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	sp := sweepSpec(4, 16)
	if _, err := Execute(context.Background(), &sp, Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Execute(context.Background(), &sp, Config{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompletedRuns != a.TotalRuns {
		t.Fatalf("completed %d of %d runs", a.CompletedRuns, a.TotalRuns)
	}
	frames := uint64(a.TotalRuns * sp.Base.Frames)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("%d bytes per frame over %d frames", perFrame, frames)
	const budget = 20000
	if perFrame > budget {
		t.Fatalf("campaign allocates %d bytes per frame, budget %d", perFrame, budget)
	}
}
