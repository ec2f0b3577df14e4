package traffic

import (
	"testing"

	"repro/internal/telemetry"
)

// observeTimer is the shared nil-tolerant record helper; a nil timer is
// a stage nobody watches, not a crash.
func TestObserveTimerNilTimer(t *testing.T) {
	observeTimer(nil, 42) // must not panic
	reg := telemetry.NewRegistry()
	tm := reg.Timer("x_ns")
	observeTimer(tm, 42)
	if tm.Count() != 1 {
		t.Fatalf("observations %d, want 1", tm.Count())
	}
}

// A StageTimers set with nil entries times only the stages it carries:
// the engine must skip the nil slots on every path (synthesis/receive
// on both the loaded and idle-frame branches, schedule, transmit,
// verify), not dereference them.
func TestStageTimersPartialSet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.Verify = true // exercise the verify-timer slot too
	e := newEngine(t, cfg, []Terminal{
		{ID: "t0", Beam: 0, Model: OnOff{On: 1, Off: 1, Cells: 1}}, // idle frames included
	}, "uncoded")
	reg := telemetry.NewRegistry()
	st := &StageTimers{Synthesis: reg.Timer("engine.stage.synthesis_ns")}
	e.SetStageTimers(st)
	const frames = 4
	if err := e.RunFrames(frames); err != nil {
		t.Fatal(err)
	}
	if got := st.Synthesis.Count(); got != frames {
		t.Fatalf("synthesis observations %d, want %d", got, frames)
	}
}

// With no StageTimers attached at all the engine must take the untimed
// path end to end.
func TestStageTimersNilSet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.Verify = true
	e := newEngine(t, cfg, []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 1}},
	}, "uncoded")
	e.SetStageTimers(nil)
	if err := e.RunFrames(2); err != nil {
		t.Fatal(err)
	}
	if e.StageTimers() != nil {
		t.Fatal("stage timers reattached themselves")
	}
	if e.Report().DeliveredPackets == 0 {
		t.Fatal("untimed engine delivered nothing")
	}
}

// NewStageTimers interns the cross-frame occupancy pair under the
// documented engine.pipeline.* keys, the ones the benchmark reads back.
func TestNewPipelineTimersKeys(t *testing.T) {
	st := NewStageTimers(telemetry.NewRegistry())
	if st.Overlap.Name() != "engine.pipeline.overlap_ns" {
		t.Fatalf("overlap key %q", st.Overlap.Name())
	}
	if st.Stall.Name() != "engine.pipeline.stall_ns" {
		t.Fatalf("stall key %q", st.Stall.Name())
	}
}
