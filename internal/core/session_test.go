package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/payload"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// miniSwapSpec is a reduced E11 shape: sustained load with a scripted
// decoder swap halfway.
func miniSwapSpec() scenario.Spec {
	return scenario.Spec{
		Name:   "mini-swap",
		Frames: 8,
		System: scenario.SystemSpec{Carriers: 2, Codec: "conv-r1/2-k9"},
		Traffic: scenario.TrafficSpec{
			Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16,
			QueueDepth: 8, EbN0dB: 9, Verify: true, Seed: 13,
		},
		Terminals: []scenario.TerminalSpec{
			{ID: "t0", Beam: 0, Model: scenario.ModelSpec{Kind: "cbr", Cells: 1}},
			{ID: "t1", Beam: 1, Model: scenario.ModelSpec{Kind: "cbr", Cells: 1}},
		},
		Events: []scenario.Event{
			{Frame: 4, Action: scenario.ActionSwapDecoder, Codec: "turbo-r1/3"},
		},
	}
}

// A scripted decoder swap on the assembled system runs the full ground
// procedure (upload, COPS policy, five-step reload) through the control
// plane adapter, stays bit-exact end to end, and leaves the new decoder
// installed.
func TestSessionScriptedSwapThroughControlPlane(t *testing.T) {
	sysCfg := DefaultSystemConfig()
	sysCfg.Payload.Carriers = 2
	sys, err := NewSystem(sysCfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	sess, err := sys.NewSession(miniSwapSpec())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	log := sess.EventLog()
	if len(log) != 1 || log[0].Err != nil || log[0].Frame != 4 {
		t.Fatalf("event log %+v", log)
	}
	codec, err := sys.Payload.Codec()
	if err != nil {
		t.Fatal(err)
	}
	if codec.Name() != "turbo-r1/3" {
		t.Fatalf("codec after scripted swap: %s", codec.Name())
	}
	if rep.Frames != 8 || rep.OutageFrames != 0 {
		t.Fatalf("ran %d frames with %d outages", rep.Frames, rep.OutageFrames)
	}
	if rep.UplinkFailures != 0 || rep.UplinkBitErrs != 0 ||
		rep.DownlinkLost != 0 || rep.DownlinkBitErrs != 0 {
		t.Fatalf("loop not bit-exact across the control-plane swap: %+v", rep)
	}
	// The ground actually uploaded something: reconfiguration reports
	// arrived at the NCC during the run.
	if len(sys.NCC.Reports) == 0 {
		t.Fatal("no NCC reconfiguration reports — the swap bypassed the control plane")
	}
}

// A session on the assembled system (attached payload, live control
// plane) must stay bit-identical to an engine built directly on the
// system's payload from the same configuration.
func TestSessionOnSystemMatchesEngine(t *testing.T) {
	mk := func() *System {
		sys, err := NewSystem(DefaultSystemConfig())
		if err != nil {
			t.Fatal(err)
		}
		sys.RunUntil(2)
		return sys
	}
	spec := miniSwapSpec()
	spec.Events = nil
	spec.Frames = 4

	sess, err := mk().NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	viaSession, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sys := mk()
	if err := sys.Payload.SetWaveform(payload.ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := sys.Payload.SetCodec(spec.System.Codec); err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.TrafficConfig()
	if err != nil {
		t.Fatal(err)
	}
	terms, _, err := spec.Populations()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := traffic.New(sys.Payload, cfg, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	direct := eng.Report()
	viaSession.WallSeconds, direct.WallSeconds = 0, 0
	if !reflect.DeepEqual(viaSession, direct) {
		t.Fatalf("session diverged from the direct engine:\nsession %+v\ndirect  %+v", viaSession, direct)
	}
}
