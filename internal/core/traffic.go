package core

import (
	"fmt"

	"repro/internal/ncc"
	"repro/internal/payload"
	"repro/internal/scenario"
)

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
