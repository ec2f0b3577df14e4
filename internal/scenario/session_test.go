package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/traffic"
)

// directEngineReport runs the spec's resolved configuration and
// population straight through traffic.Engine — the PR 2/PR 3 path the
// session must stay bit-identical to.
func directEngineReport(t *testing.T, sp Spec, frames int) *traffic.Report {
	t.Helper()
	pcfg := payload.DefaultConfig()
	pcfg.Carriers = sp.Traffic.Carriers
	pl, err := payload.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec(sp.System.Codec); err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.TrafficConfig()
	if err != nil {
		t.Fatal(err)
	}
	terms, _, err := sp.Populations()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := traffic.New(pl, cfg, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunFrames(frames); err != nil {
		t.Fatal(err)
	}
	return eng.Report()
}

// The equivalence contract: a preset run through the declarative
// session is bit-identical — every counter, every per-terminal stat —
// to the same configuration driven straight through the engine, on the
// clean and the impaired populations.
func TestSessionMatchesDirectEngine(t *testing.T) {
	for _, name := range []string{"clean", "impaired"} {
		t.Run(name, func(t *testing.T) {
			sp, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sp.Frames = 8 // truncated run, same shape
			sess, err := NewSession(sp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := directEngineReport(t, sp, sp.Frames)
			got.WallSeconds, want.WallSeconds = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("session diverged from the direct engine path:\nsession %+v\nengine  %+v", got, want)
			}
			if got.UplinkFailures != 0 || got.UplinkBitErrs != 0 ||
				got.DownlinkLost != 0 || got.DownlinkBitErrs != 0 {
				t.Fatalf("loop not bit-exact: %+v", got)
			}
		})
	}
}

// TestCloseKeepsTheSessionRunning holds Close to its contract: a session
// stepped after Close (which returned its frame buffers) reports what a
// session never closed reports, bit for bit — equal JSON, so an equal
// sim digest — at GOMAXPROCS 1 and 2, ground verify on.
func TestCloseKeepsTheSessionRunning(t *testing.T) {
	const n, m = 5, 7
	report := func(closeAt int) string {
		sess, err := NewSession(Impaired())
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < n+m; f++ {
			if f == closeAt {
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Step(); err != nil {
				t.Fatal(err)
			}
		}
		rep := sess.Report()
		rep.WallSeconds = 0
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		closed, open := report(n), report(-1)
		runtime.GOMAXPROCS(prev)
		if closed != open {
			t.Errorf("GOMAXPROCS %d: closed after %d frames:\n%s\nnever closed:\n%s", procs, n, closed, open)
		}
	}
}

// Run must stop at a frame boundary when the context is cancelled,
// returning a consistent report for the frames that completed.
func TestRunStopsAtFrameBoundaryOnCancel(t *testing.T) {
	sp, err := Preset("clean")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var frames []int
	sess, err := NewSession(sp, WithObserver(func(st FrameStats, report func() *traffic.Report) {
		frames = append(frames, st.Frame)
		if rep := report(); rep.Frames != st.Frame+1 {
			t.Fatalf("live report out of step: %d frames after frame %d", rep.Frames, st.Frame)
		}
		if st.Frame == 2 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Frames != 3 {
		t.Fatalf("ran %d frames after a cancel at frame 2", rep.Frames)
	}
	if !reflect.DeepEqual(frames, []int{0, 1, 2}) {
		t.Fatalf("observed frames %v", frames)
	}
	// The report is consistent: re-reading it gives the same counters,
	// and the session can resume (cancellation is not corruption).
	if again := sess.Report(); again.Frames != 3 || again.GrantedCells != rep.GrantedCells {
		t.Fatalf("report inconsistent after cancel: %+v vs %+v", again, rep)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if got := sess.Report().Frames; got != sp.Frames {
		t.Fatalf("resumed run stopped at %d frames, want %d", got, sp.Frames)
	}
}

// Run under a context that is already done steps no frame (the name is
// from when a session option carried the context).
func TestWithContextGatesStep(t *testing.T) {
	sp, _ := Preset("clean")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(ctx)
	if !errors.Is(err, context.Canceled) || rep.Frames != 0 {
		t.Fatalf("Run under a dead context: %d frames, err %v", rep.Frames, err)
	}
}

// Without a control plane, a scripted decoder swap reconfigures the
// payload directly; the loop stays bit-exact across it and the event
// log records the execution.
func TestScriptedSwapLocal(t *testing.T) {
	sp := Spec{
		Frames: 8,
		System: SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic: TrafficSpec{
			Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16,
			QueueDepth: 8, EbN0dB: 9, Verify: true, Seed: 7,
		},
		Terminals: []TerminalSpec{
			{ID: "a", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}},
			{ID: "b", Beam: 1, Model: ModelSpec{Kind: "cbr", Cells: 1}},
		},
		Events: []Event{{Frame: 4, Action: ActionSwapDecoder, Codec: "turbo-r1/3"}},
	}
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	var sawEvent bool
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sess.EventLog() {
		if rec.Action == ActionSwapDecoder {
			sawEvent = true
			if rec.Frame != 4 || rec.Err != nil {
				t.Fatalf("swap record %+v", rec)
			}
		}
	}
	if !sawEvent {
		t.Fatal("swap event never executed")
	}
	codec, err := sess.Payload().Codec()
	if err != nil {
		t.Fatal(err)
	}
	if codec.Name() != "turbo-r1/3" {
		t.Fatalf("codec after swap: %s", codec.Name())
	}
	if rep.UplinkBitErrs != 0 || rep.DownlinkBitErrs != 0 || rep.DownlinkLost != 0 {
		t.Fatalf("loop not bit-exact across the swap: %+v", rep)
	}
}

// Scripted joins, leaves and queue changes take effect at their frame
// boundaries: the joiner starts granting, the leaver stops, the report
// keeps the leaver's row, and the queue bound moves.
func TestScriptedPopulationAndQueueEvents(t *testing.T) {
	sp := Spec{
		Frames: 10,
		System: SystemSpec{Codec: "uncoded"},
		Traffic: TrafficSpec{
			Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16,
			QueueDepth: 2, EbN0dB: 9, Seed: 5,
		},
		Terminals: []TerminalSpec{
			{ID: "a", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}},
		},
		Events: []Event{
			{Frame: 3, Action: ActionJoin, Join: &TerminalSpec{
				ID: "late", Beam: 1, Model: ModelSpec{Kind: "cbr", Cells: 2}}},
			{Frame: 6, Action: ActionLeave, Terminal: "late"},
			{Frame: 6, Action: ActionSetQueue, QueueDepth: 5, Policy: "backpressure"},
		},
	}
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerTerminal) != 2 {
		t.Fatalf("report rows %d, want 2 (departed row retained)", len(rep.PerTerminal))
	}
	late := rep.PerTerminal[1]
	if late.ID != "late" {
		t.Fatalf("second row is %q", late.ID)
	}
	// Joined at 3, left at 6: granted on frames 3..5 only.
	if late.GrantedCells != 3*2 {
		t.Fatalf("late terminal granted %d cells, want 6", late.GrantedCells)
	}
	eng := sess.Engine()
	if got := eng.Config().QueueDepth; got != 5 {
		t.Fatalf("queue depth %d after set-queue, want 5", got)
	}
	if got := eng.Config().Policy; got != traffic.Backpressure {
		t.Fatalf("policy %v after set-queue", got)
	}
	if got := len(eng.Terminals()); got != 1 {
		t.Fatalf("%d active terminals after leave", got)
	}
}

// A mid-run set-channel event re-resolves the payload's sync chain:
// the first impairing profile engages the full chain, clearing it
// restores the legacy chain — the fade-ramp preset's mechanism.
func TestSetChannelResolvesSyncMidRun(t *testing.T) {
	sp := Spec{
		Frames: 6,
		System: SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic: TrafficSpec{
			Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16,
			QueueDepth: 8, EbN0dB: 6, Verify: true, Seed: 9,
		},
		Terminals: []TerminalSpec{
			{ID: "a", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}},
			{ID: "b", Beam: 1, Model: ModelSpec{Kind: "cbr", Cells: 1}},
		},
		Events: []Event{
			{Frame: 2, Action: ActionSetChannel, Terminal: "a",
				Channel: &traffic.ChannelProfile{CFO: 0.05, Phase: 1.0, Timing: 0.5}},
			{Frame: 4, Action: ActionSetChannel, Terminal: "a"},
		},
	}
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	pl := sess.Payload()
	wantChain := func(frame int) bool { return frame >= 2 && frame < 4 }
	for sess.Frame() < sp.Frames {
		f := sess.Frame()
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
		full := pl.SyncConfig() != (modem.SyncConfig{})
		if full != wantChain(f) {
			t.Fatalf("frame %d: full sync chain = %v, want %v", f, full, wantChain(f))
		}
	}
	rep := sess.Report()
	if rep.UplinkFailures != 0 || rep.UplinkBitErrs != 0 || rep.DownlinkBitErrs != 0 {
		t.Fatalf("fade not clean: %+v", rep)
	}
}

// An attached payload must actually match the spec it was validated
// against: a foreign waveform or a different burst format is an error,
// not a silent reconfiguration.
func TestAttachedPayloadCrossChecks(t *testing.T) {
	sp, _ := Preset("clean")
	sp.Frames = 2

	cdmaPl, err := payload.New(payload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := cdmaPl.SetWaveform(payload.ModeCDMA); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(sp, WithPayload(cdmaPl)); err == nil {
		t.Fatal("session silently reloaded a CDMA payload onto TDMA")
	}
	if cdmaPl.Mode() != payload.ModeCDMA {
		t.Fatal("rejected session still clobbered the waveform")
	}

	smallCfg := payload.DefaultConfig()
	smallCfg.TDMAPayloadSymbols = 64
	smallPl, err := payload.New(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	sp.System.PayloadSymbols = 128
	if _, err := NewSession(sp, WithPayload(smallPl)); err == nil {
		t.Fatal("burst-format mismatch between spec and attached payload accepted")
	}
}

// The spec's ground-verification switch reaches the engine (the name is
// from when a session option overrode it).
func TestWithVerificationOverride(t *testing.T) {
	sp, _ := Preset("clean")
	sp.Frames = 2
	sp.Traffic.Verify = false
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatal("verification still on")
	}
}

// A failing event aborts the run with the failure in the log.
func TestFailingEventAbortsRun(t *testing.T) {
	sp := Spec{
		Frames: 4,
		System: SystemSpec{Codec: "uncoded"},
		Traffic: TrafficSpec{
			Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16,
			QueueDepth: 4, Seed: 3,
		},
		Terminals: []TerminalSpec{
			{ID: "a", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}},
		},
		// Validation-clean; the test makes the join fail at runtime by
		// occupying its ID out-of-band before the script reaches it.
		Events: []Event{
			{Frame: 1, Action: ActionJoin, Join: &TerminalSpec{
				ID: "x", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}}},
		},
	}
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage at runtime: occupy the ID before the scripted join fires.
	if err := sess.Engine().AddTerminal(traffic.Terminal{
		ID: "x", Beam: 0, Model: traffic.CBR{Cells: 1}}); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Run(context.Background())
	if err == nil {
		t.Fatal("run survived a failing event")
	}
	log := sess.EventLog()
	if len(log) != 1 || log[0].Err == nil {
		t.Fatalf("event log %+v", log)
	}
}
