package core

import (
	"strings"
	"testing"

	"repro/internal/ncc"
	"repro/internal/payload"
)

// TestServiceOutageDuringReconfiguration probes the DEMOD function's
// health at a fine cadence while a ground-initiated reconfiguration runs,
// verifying that the service is down exactly during the switch-off /
// JTAG-load / validate / switch-on window (§3.1: "this scenario
// authorizes services interruption") and is restored afterwards.
func TestServiceOutageDuringReconfiguration(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	if err := sys.Payload.SetWaveform(payload.ModeCDMA); err != nil {
		t.Fatal(err)
	}

	// Self-rescheduling health probe, every 20 ms for 60 s.
	var upSamples, downSamples int
	var firstDown, lastDown float64 = -1, -1
	var probe func()
	probe = func() {
		if sys.Sim.Now() > 60 {
			return
		}
		if sys.Payload.Chipset().FunctionHealthy(payload.FuncDemod) {
			upSamples++
		} else {
			downSamples++
			if firstDown < 0 {
				firstDown = sys.Sim.Now()
			}
			lastDown = sys.Sim.Now()
		}
		sys.Sim.Schedule(0.02, probe)
	}
	sys.Sim.Schedule(0, probe)

	bs := sys.Payload.DemodBitstreams(payload.ModeTDMA)["demod-fpga"]
	rep := sys.GroundReconfigure("demod-fpga", bs, ncc.ProtoSCPSFP, 16, true)
	if !rep.OK {
		t.Fatalf("reconfiguration failed: %s", rep.FailureReason)
	}

	if downSamples == 0 {
		t.Fatal("the probe never observed the outage")
	}
	if upSamples == 0 {
		t.Fatal("the probe never observed the service up")
	}
	outage := lastDown - firstDown
	// The measured outage must be in the same ballpark as the reported
	// interruption (switch-off .. switch-on) at the probe resolution.
	if outage > rep.Total() {
		t.Fatalf("outage %g exceeds the whole procedure %g", outage, rep.Total())
	}
	// The outage must start only after the upload completed.
	if firstDown < rep.UploadDone-0.05 {
		t.Fatalf("service went down at %g before upload finished at %g", firstDown, rep.UploadDone)
	}
	// And the service must be healthy at the end.
	if !sys.Payload.Chipset().FunctionHealthy(payload.FuncDemod) {
		t.Fatal("service not restored")
	}
	if sys.Payload.Mode() != payload.ModeTDMA {
		t.Fatal("waveform not migrated")
	}
}

// TestSEUCorruptedStagedFileRollsBack simulates a single-event upset in
// the on-board memory between upload and reload: the staged bitstream is
// corrupted, its CRC check fails at Unmarshal time, the library route
// reports the failure, and the payload keeps running the previous design.
func TestSEUCorruptedStagedFileRollsBack(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	if err := sys.Payload.SetWaveform(payload.ModeCDMA); err != nil {
		t.Fatal(err)
	}

	bs := sys.Payload.DemodBitstreams(payload.ModeTDMA)["demod-fpga"]
	data := bs.Marshal()
	data[100] ^= 0x04 // the SEU
	sys.Controller.Store().Put("hit.bit", data)

	// The library route reports what the device reported: a failure
	// naming it, not a success because some report arrived.
	if rep := sys.LibraryReconfigure("demod-fpga", "hit.bit", true); rep.OK || !strings.Contains(rep.FailureReason, "demod-fpga") {
		t.Fatalf("library route on a corrupted bitstream: %v", rep)
	}
	// Payload must still be on CDMA and healthy.
	if sys.Payload.Mode() != payload.ModeCDMA {
		t.Fatalf("mode %v after failed load", sys.Payload.Mode())
	}
	if !sys.Payload.Chipset().FunctionHealthy(payload.FuncDemod) {
		t.Fatal("service must remain healthy")
	}
}

// TestMemoryLibraryEviction exercises the §3.2 library trade-off through
// the full system: a bounded on-board memory evicts the least recently
// used bitstream when a new one arrives.
func TestMemoryLibraryEviction(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.MemoryCapacity = 10_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	store := sys.Controller.Store()
	store.Put("a.bit", make([]byte, 4000))
	store.Put("b.bit", make([]byte, 4000))
	store.Get("a.bit") // refresh a
	store.Put("c.bit", make([]byte, 4000))
	if _, ok := store.Get("b.bit"); ok {
		t.Fatal("LRU not evicted")
	}
	_, okA := store.Get("a.bit")
	_, okC := store.Get("c.bit")
	if !okA || !okC {
		t.Fatal("wrong eviction")
	}
}
