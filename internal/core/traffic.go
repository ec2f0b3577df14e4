package core

import (
	"context"
	"fmt"

	"repro/internal/ncc"
	"repro/internal/payload"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// TrafficScenario describes a sustained-load run on the assembled
// system: the engine configuration, the terminal population and how many
// frames to push through the closed regenerative loop. It predates the
// declarative scenario layer; new code should build a scenario.Spec
// (or preset) and use NewSession / RunScenario, which add event scripts,
// observers and cancellation on top of the same engine.
type TrafficScenario struct {
	Config    traffic.Config
	Terminals []traffic.Terminal
	Frames    int
}

// scenarioControl adapts the system's ground-initiated reconfiguration
// procedures to scenario.ControlPlane, so scripted swap-decoder /
// migrate-waveform events run the full upload + COPS + five-step
// reload path rather than flipping the payload locally.
type scenarioControl struct {
	sys    *System
	proto  ncc.Protocol
	window int
}

// SwapDecoder implements scenario.ControlPlane.
func (c scenarioControl) SwapDecoder(codec string) error {
	for _, rep := range c.sys.SwapDecoder(codec, c.proto, c.window) {
		if !rep.OK {
			return fmt.Errorf("core: decoder swap to %s failed on %s: %s", codec, rep.Device, rep.FailureReason)
		}
	}
	return nil
}

// MigrateWaveform implements scenario.ControlPlane.
func (c scenarioControl) MigrateWaveform(mode payload.WaveformMode) error {
	for _, rep := range c.sys.MigrateWaveform(mode, c.proto, c.window) {
		if !rep.OK {
			return fmt.Errorf("core: waveform migration to %s failed on %s: %s", mode, rep.Device, rep.FailureReason)
		}
	}
	return nil
}

// ScenarioControl exposes the system as a scenario control plane with
// the given transfer protocol and FOP window.
func (sys *System) ScenarioControl(proto ncc.Protocol, window int) scenario.ControlPlane {
	return scenarioControl{sys: sys, proto: proto, window: window}
}

// NewSession builds a scenario session on the assembled system: the
// system's payload carries the traffic and scripted reconfiguration
// events run through the live control plane (SCPS-FP uploads, window
// 32 — the E11 defaults; use ScenarioControl + scenario.NewSession
// directly for other protocols).
func (sys *System) NewSession(spec scenario.Spec, opts ...scenario.Option) (*scenario.Session, error) {
	base := []scenario.Option{
		scenario.WithPayload(sys.Payload),
		scenario.WithControlPlane(sys.ScenarioControl(ncc.ProtoSCPSFP, 32)),
	}
	return scenario.NewSession(spec, append(base, opts...)...)
}

// RunScenario executes a spec (or preset) against the assembled system
// and returns the run metrics.
func (sys *System) RunScenario(spec scenario.Spec, opts ...scenario.Option) (*traffic.Report, error) {
	sess, err := sys.NewSession(spec, opts...)
	if err != nil {
		return nil, err
	}
	return sess.Run(context.Background())
}

// NewTrafficEngine builds a traffic engine around the assembled system's
// payload — a thin wrapper over the scenario session layer. The engine
// runs next to the live control plane, so callers can interleave
// RunFrames with reconfiguration scenarios (SwapDecoder,
// MigrateWaveform) and observe the service impact in the run metrics.
func (sys *System) NewTrafficEngine(sc TrafficScenario) (*traffic.Engine, error) {
	sess, err := sys.NewSession(
		scenario.SpecFromConfig(sc.Config, sc.Frames),
		scenario.WithPopulation(sc.Terminals),
		scenario.WithTrafficConfig(sc.Config),
	)
	if err != nil {
		return nil, err
	}
	return sess.Engine(), nil
}

// RunTraffic pushes the scenario's frames through the closed loop in one
// go and returns the run metrics. A non-positive frame count is an
// explicit error, matching Engine.RunFrames.
func (sys *System) RunTraffic(sc TrafficScenario) (*traffic.Report, error) {
	if sc.Frames <= 0 {
		return nil, fmt.Errorf("core: RunTraffic over %d frames: frame count must be positive", sc.Frames)
	}
	sess, err := sys.NewSession(
		scenario.SpecFromConfig(sc.Config, sc.Frames),
		scenario.WithPopulation(sc.Terminals),
		scenario.WithTrafficConfig(sc.Config),
	)
	if err != nil {
		return nil, err
	}
	return sess.Run(context.Background())
}
