package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/modem"
	"repro/internal/ncc"
	"repro/internal/payload"
	"repro/internal/traffic"
)

// TestEngineOnAssembledSystem drives sustained MF-TDMA load through
// the assembled system's payload with the control plane wired up.
func TestEngineOnAssembledSystem(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	if err := sys.Payload.SetWaveform(payload.ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := sys.Payload.SetCodec("conv-r1/2-k9"); err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultConfig()
	cfg.Frame = modem.FrameConfig{Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16}
	cfg.Verify = true
	cfg.Seed = 13
	eng, err := traffic.New(sys.Payload, cfg, []traffic.Terminal{
		{ID: "t0", Beam: 0, Model: traffic.CBR{Cells: 1}},
		{ID: "t1", Beam: 1, Model: traffic.CBR{Cells: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.Frames != 4 || rep.OutageFrames != 0 {
		t.Fatalf("ran %d frames with %d outages", rep.Frames, rep.OutageFrames)
	}
	if rep.UplinkBitErrs != 0 || rep.DownlinkBitErrs != 0 || rep.DownlinkLost != 0 {
		t.Fatalf("loop not bit-exact: %+v", rep)
	}
	if rep.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestTrafficEngineInterleavedWithSwap steps an engine on the system's
// payload directly, every frame's egress overlapping the next frame, and
// swaps the decoder through the ground procedure between RunFrames
// calls. RunFrames returns drained, so the swap never races an
// in-flight egress (the race job proves it) and the outcome is the same
// at GOMAXPROCS 1 and 2, downlink verify counters included.
func TestTrafficEngineInterleavedWithSwap(t *testing.T) {
	run := func(procs int) *traffic.Report {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sysCfg := DefaultSystemConfig()
		sysCfg.Payload.Carriers = 2
		sys, err := NewSystem(sysCfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.RunUntil(2)
		if err := sys.Payload.SetCodec("conv-r1/2-k9"); err != nil {
			t.Fatal(err)
		}
		cfg := traffic.DefaultConfig()
		cfg.Frame = modem.FrameConfig{Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16}
		cfg.Verify = true
		cfg.EbN0dB = 9
		cfg.Seed = 13
		if err := sys.Payload.SetWaveform(payload.ModeTDMA); err != nil {
			t.Fatal(err)
		}
		eng, err := traffic.New(sys.Payload, cfg, []traffic.Terminal{
			{ID: "t0", Beam: 0, Model: traffic.CBR{Cells: 1}},
			{ID: "t1", Beam: 1, Model: traffic.CBR{Cells: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, codec := range []string{"turbo-r1/3", "conv-r1/2-k9"} {
			if err := eng.RunFrames(3); err != nil {
				t.Fatal(err)
			}
			for _, r := range sys.SwapDecoder(codec, ncc.ProtoSCPSFP, 32) {
				if !r.OK {
					t.Fatalf("swap to %s failed: %s", codec, r)
				}
			}
		}
		if err := eng.RunFrames(3); err != nil {
			t.Fatal(err)
		}
		rep := eng.Report()
		rep.WallSeconds = 0
		return rep
	}
	seq, ovl := run(1), run(2)
	if seq.Frames != 9 || seq.DeliveredPackets == 0 || seq.UplinkBitErrs != 0 || seq.DownlinkBitErrs != 0 || seq.DownlinkLost != 0 {
		t.Fatalf("loop not bit-exact across the swaps: %+v", seq)
	}
	if !reflect.DeepEqual(seq, ovl) {
		t.Fatalf("GOMAXPROCS 2 run diverged from GOMAXPROCS 1:\nseq %+v\novl %+v", seq, ovl)
	}
}
