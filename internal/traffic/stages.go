package traffic

import "repro/internal/telemetry"

// Stage names one of the engine's per-frame timers.
type Stage int

// The closed loop's stages, then the cross-frame occupancy pair.
const (
	StageSynthesis Stage = iota // DAMA grant + terminal-side encode/modulate/channel
	StageReceive                // payload receive pipeline + switch routing
	StageSchedule               // downlink scheduler fill of the transmit grid
	StageTransmit               // wideband DUC/MUX/DAC transmit
	StageVerify                 // ground demodulation check (only when Config.Verify)
	// Once per joined frame (its egress overlapped the next frame):
	StageOverlap // the part of the egress that ran under the next frame's ingest+fill (hidden latency)
	StageStall   // the time the control thread blocked at the join waiting for that egress (exposed latency)
	numStages
)

// stageKeys are the feed names of the stage timers.
var stageKeys = [numStages]string{
	StageSynthesis: "engine.stage.synthesis_ns",
	StageReceive:   "engine.stage.receive_ns",
	StageSchedule:  "engine.stage.schedule_ns",
	StageTransmit:  "engine.stage.transmit_ns",
	StageVerify:    "engine.stage.verify_ns",
	StageOverlap:   "engine.pipeline.overlap_ns",
	StageStall:     "engine.pipeline.stall_ns",
}

// StageTimers carries the engine's per-stage frame timers — the
// software mirror of the paper's per-pipeline-stage FPGA
// instrumentation. Each timer records one observation per frame (in
// nanoseconds) for its stage. An engine with no StageTimers attached
// takes no per-stage timestamps at all.
type StageTimers [numStages]*telemetry.Timer

// NewStageTimers registers the engine timer set on reg under the
// engine.stage.* and engine.pipeline.* keys.
func NewStageTimers(reg *telemetry.Registry) *StageTimers {
	var st StageTimers
	for s, key := range stageKeys {
		st[s] = reg.Timer(key)
	}
	return &st
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
