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
// and in bytes. The frame plan — pooled modulators/demodulators/channels,
// flat info-bit backing, scratch composers and encode buffers — brought
// the loop from ~6000 allocations per frame to a few dozen; the count
// bound holds that line with slack for runtime noise (map growth, pool
// repopulation after a GC). The byte bound is tighter, about 1.3x the
// most this 4-burst frame measured at GOMAXPROCS 2, 4 and 8, 2.9 / 3.2
// KiB (28 / 32 allocations; a fan-out's state is pooled, so a call costs
// only its goroutine starts), because bytes are what crept unnoticed
// under the count bound: a per-burst slice that grows fits the same
// allocation count. The turbo rows are held to about 1.3x their own 1.9
// / 2.5 KiB. A burst's soft bits live in its demodulator, so what is
// left is mostly the decoded bits that enter the queues.
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
		{"uplink", "conv-r1/2-k9", false, 100, 3800},
		{"verify", "conv-r1/2-k9", true, 100, 4200},
		{"turbo-uplink", "turbo-r1/3", false, 100, 2500},
		{"turbo-verify", "turbo-r1/3", true, 100, 3300},
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
			// Warm every pool and scratch buffer.
			if err := eng.RunFrames(3); err != nil {
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
	const budget = 100 // same bound as the untimed TestEngineFrameAllocBudget
	if allocs > budget {
		t.Fatalf("stage-timed frame loop allocates %v per frame, budget %d", allocs, budget)
	}
}
