package traffic

import (
	"testing"

	"repro/internal/telemetry"
)

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
	if e.stages != nil {
		t.Fatal("stage timers reattached themselves")
	}
	if e.Report().DeliveredPackets == 0 {
		t.Fatal("untimed engine delivered nothing")
	}
}

// NewStageTimers interns the cross-frame occupancy pair under the
// documented engine.pipeline.* keys, the ones the benchmark reads back.
func TestNewStageTimersKeys(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStageTimers(reg)
	if st[StageOverlap] != reg.Timer("engine.pipeline.overlap_ns") {
		t.Fatal("overlap timer not interned under engine.pipeline.overlap_ns")
	}
	if st[StageStall] != reg.Timer("engine.pipeline.stall_ns") {
		t.Fatal("stall timer not interned under engine.pipeline.stall_ns")
	}
}
