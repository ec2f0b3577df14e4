package traffic

import "repro/internal/telemetry"

// StageTimers carries the engine's per-stage frame timers — the
// software mirror of the paper's per-pipeline-stage FPGA
// instrumentation. Each timer records one observation per frame (in
// nanoseconds) for its stage of the closed loop:
//
//	Synthesis — DAMA grant + terminal-side encode/modulate/channel
//	Receive   — payload receive pipeline + switch routing
//	Schedule  — downlink scheduler fill of the transmit grid
//	Transmit  — wideband DUC/MUX/DAC transmit
//	Verify    — ground demodulation check (only when Config.Verify)
//
// and, once per joined frame whose egress overlapped the next frame
// (GOMAXPROCS > 1; never on one CPU), the cross-frame occupancy pair:
//
//	Overlap — the part of the egress that ran under the next frame's
//	          ingest+fill (hidden latency)
//	Stall   — the time the control thread blocked at the join waiting
//	          for that egress to finish (exposed latency)
//
// Individual timers may be nil; the engine skips them. An engine with
// no StageTimers attached takes no per-stage timestamps at all.
type StageTimers struct {
	Synthesis *telemetry.Timer
	Receive   *telemetry.Timer
	Schedule  *telemetry.Timer
	Transmit  *telemetry.Timer
	Verify    *telemetry.Timer
	Overlap   *telemetry.Timer
	Stall     *telemetry.Timer
}

// NewStageTimers registers the engine timer set on reg under the
// engine.stage.* and engine.pipeline.* keys.
func NewStageTimers(reg *telemetry.Registry) *StageTimers {
	return &StageTimers{
		Synthesis: reg.Timer("engine.stage.synthesis_ns"),
		Receive:   reg.Timer("engine.stage.receive_ns"),
		Schedule:  reg.Timer("engine.stage.schedule_ns"),
		Transmit:  reg.Timer("engine.stage.transmit_ns"),
		Verify:    reg.Timer("engine.stage.verify_ns"),
		Overlap:   reg.Timer("engine.pipeline.overlap_ns"),
		Stall:     reg.Timer("engine.pipeline.stall_ns"),
	}
}

// SetStageTimers attaches (or, with nil, detaches) the per-stage frame
// timers at a frame boundary, draining the engine first like every
// mutator. The record path is allocation-free: timing adds two
// monotonic clock reads per stage and one bounded sample append per
// timer, nothing else.
func (e *Engine) SetStageTimers(st *StageTimers) {
	e.drain()
	e.stages = st
}

// StageTimers returns the attached per-stage timers (nil when untimed).
func (e *Engine) StageTimers() *StageTimers { return e.stages }

// observeTimer records ns into tm when the timer is present: a
// StageTimers set may carry nil entries for stages a caller does not
// watch.
func observeTimer(tm *telemetry.Timer, ns int64) {
	if tm != nil {
		tm.Observe(float64(ns))
	}
}
