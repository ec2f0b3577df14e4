package traffic

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// TestEngineFrameAllocBudget pins the steady-state allocation budget of
// one closed-loop frame (DAMA, encode + modulate into the composer,
// channel, demod + decode + switch, downlink grid transmit, and with
// verify the ground receiver's demux + demod + decode), in allocations
// and in bytes. Every stage keeps what outlives a call in storage it
// owns (decode outputs, receipts, slot grants, the fabric's and the
// grid's bit copies) and every fan-out body is built once, so a warm
// frame at GOMAXPROCS 1 (where AllocsPerRun counts) allocates nothing.
// The byte bound is taken at the test's GOMAXPROCS, where the fan-outs
// start goroutines: about 1.2x the most this 4-burst frame measured at
// GOMAXPROCS 2, 4 and 8 over about 300 runs on a 2-vCPU host, some
// beside a CPU-bound process, 1 700 / 1 482 / 580 / 1 128 bytes, after a
// warm-up long enough that the runtime holds the goroutines the fan-outs
// reach at their widest.
func TestEngineFrameAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, tc := range []struct {
		name        string
		codec       string
		verify      bool
		budget      float64
		budgetBytes uint64
	}{
		{"uplink", "conv-r1/2-k9", false, 0, 2100},
		{"verify", "conv-r1/2-k9", true, 0, 1800},
		{"turbo-uplink", "turbo-r1/3", false, 0, 700},
		{"turbo-verify", "turbo-r1/3", true, 0, 1400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Frame = smallFrame(2, 2)
			cfg.EbN0dB = 9
			cfg.Verify = tc.verify
			eng := newEngine(t, cfg, []Terminal{
				{ID: "t0", Beam: 0, Model: CBR{Cells: 2}},
				{ID: "t1", Beam: 1, Model: CBR{Cells: 2}},
			}, tc.codec)
			// Warm every pool, scratch buffer and fan-out goroutine.
			if err := eng.RunFrames(24); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := eng.RunFrames(1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.budget {
				t.Fatalf("frame loop allocates %v per frame, budget %v", allocs, tc.budget)
			}
			// The cheapest of several windows: a GC inside a window empties
			// the pools, and refilling them (demodulators, composers) costs
			// more than the whole steady-state frame.
			const windows, frames = 5, 8
			perFrame := uint64(math.MaxUint64)
			for w := 0; w < windows; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := eng.RunFrames(frames); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				perFrame = min(perFrame, (after.TotalAlloc-before.TotalAlloc)/frames)
			}
			if perFrame > tc.budgetBytes {
				t.Fatalf("frame loop allocates %d bytes per frame, budget %d", perFrame, tc.budgetBytes)
			}
			if rep := eng.Report(); rep.UplinkBitErrs != 0 || rep.DownlinkBitErrs != 0 || rep.DownlinkLost != 0 {
				t.Fatalf("%d uplink bit errors, %d downlink bit errors, %d downlink bursts lost", rep.UplinkBitErrs, rep.DownlinkBitErrs, rep.DownlinkLost)
			}
		})
	}
}

// TestEngineStageTimerAllocBudget pins the telemetry record path on the
// frame loop at zero extra allocations: a stage-timed frame must fit
// the same budget as the untimed one, because timing adds only clock
// reads and bounded sample appends into preallocated timer buffers.
func TestEngineStageTimerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.EbN0dB = 9
	eng := newEngine(t, cfg, []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 2}},
		{ID: "t1", Beam: 1, Model: CBR{Cells: 2}},
	}, "conv-r1/2-k9")
	eng.SetStageTimers(NewStageTimers(telemetry.NewRegistry()))
	if err := eng.RunFrames(3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := eng.RunFrames(1); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 0 // same bound as the untimed TestEngineFrameAllocBudget
	if allocs > budget {
		t.Fatalf("stage-timed frame loop allocates %v per frame, budget %d", allocs, budget)
	}
}
