package experiments

import (
	"io"
	"testing"
)

// The E11 contract at reduced size: the closed loop stays bit-exact
// across sustained frames and a mid-run decoder reconfiguration.
func TestE11TrafficBitExactAcrossSwap(t *testing.T) {
	cfg := DefaultE11Config()
	cfg.Frames = 12
	cfg.Frame.Carriers = 2
	cfg.Frame.Slots = 2
	res := E11Traffic(cfg)
	if !res.SwapOK {
		t.Fatal("mid-run decoder swap failed")
	}
	if !res.BitExact {
		t.Fatalf("loop not bit-exact: %+v", res.Final)
	}
	if res.Final.Frames != cfg.Frames {
		t.Fatalf("ran %d frames, want %d", res.Final.Frames, cfg.Frames)
	}
	if res.Final.OutageFrames != 0 {
		t.Fatalf("%d outage frames (the swap runs between frames)", res.Final.OutageFrames)
	}
	if res.Mid.DeliveredPackets == 0 || res.Final.DeliveredPackets <= res.Mid.DeliveredPackets {
		t.Fatal("no delivery in one of the phases")
	}
	res.Table.Print(io.Discard)
}
