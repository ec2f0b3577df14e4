package core

import (
	"fmt"
	"strings"

	"repro/internal/fpga"
	"repro/internal/ftp"
	"repro/internal/ncc"
	"repro/internal/payload"
)

// ReconfigReport is the end-to-end record of one ground-initiated
// reconfiguration: the timeline the E4 experiment reproduces.
type ReconfigReport struct {
	Device   string
	File     string
	Protocol ncc.Protocol

	UploadStart    float64
	UploadDone     float64
	ReconfigDone   float64
	OK             bool
	FailureReason  string
	BitstreamBytes int
}

// UploadTime returns the file-transfer duration.
func (r ReconfigReport) UploadTime() float64 { return r.UploadDone - r.UploadStart }

// CommandTime returns policy-push plus on-board procedure duration.
func (r ReconfigReport) CommandTime() float64 { return r.ReconfigDone - r.UploadDone }

// Total returns the complete ground-to-confirmed duration.
func (r ReconfigReport) Total() float64 { return r.ReconfigDone - r.UploadStart }

// GroundReconfigure runs the full scenario: catalog the bitstream at the
// NCC, upload it with the chosen protocol, push the COPS reconfiguration
// policy, execute the five-step procedure on board, and wait for the
// telemetry report. The system's event queue is run to completion.
func (sys *System) GroundReconfigure(device string, bs *fpga.Bitstream, proto ncc.Protocol, window int, rollback bool) ReconfigReport {
	fileName := bs.Design + ".bit"
	data := bs.Marshal()
	sys.NCC.Catalog(fileName, data)

	rep := ReconfigReport{
		Device:         device,
		File:           fileName,
		Protocol:       proto,
		UploadStart:    sys.Sim.Now(),
		BitstreamBytes: len(data),
	}

	uploadDone := false
	sys.NCC.Upload(fileName, proto, window, func(err error) {
		if err != nil {
			rep.FailureReason = "upload: " + err.Error()
			return
		}
		uploadDone = true
		rep.UploadDone = sys.Sim.Now()
		sys.NCC.PushPolicy(ftp.Policy{
			Device: device, Design: fileName, Validate: true, Rollback: rollback,
		})
	})

	before := len(sys.NCC.Reports)
	sys.Run()

	if !uploadDone {
		if rep.FailureReason == "" {
			rep.FailureReason = "upload incomplete"
		}
		return rep
	}
	// Find the report for this reconfiguration.
	for i := before; i < len(sys.NCC.Reports); i++ {
		r := sys.NCC.Reports[i]
		if strings.Contains(r, ":"+device+":") {
			rep.ReconfigDone = sys.NCC.ReportTimes[i]
			rep.OK = strings.HasPrefix(r, "ok:")
			if !rep.OK {
				rep.FailureReason = r
			}
			return rep
		}
	}
	rep.FailureReason = "no telemetry report received"
	return rep
}

// MigrateWaveform performs the Fig 3 migration on every DEMOD device:
// upload the new waveform's bitstreams and reconfigure each device in
// sequence, returning one report per device.
func (sys *System) MigrateWaveform(mode payload.WaveformMode, proto ncc.Protocol, window int) []ReconfigReport {
	var out []ReconfigReport
	for dev, bs := range sys.Payload.DemodBitstreams(mode) {
		out = append(out, sys.GroundReconfigure(dev, bs, proto, window, true))
	}
	return out
}

// SwapDecoder performs the §2.3 decoder reconfiguration on every DECOD
// device.
func (sys *System) SwapDecoder(codecName string, proto ncc.Protocol, window int) []ReconfigReport {
	var out []ReconfigReport
	for dev, bs := range sys.Payload.DecodBitstreams(codecName) {
		out = append(out, sys.GroundReconfigure(dev, bs, proto, window, true))
	}
	return out
}

// String renders a compact human-readable report.
func (r ReconfigReport) String() string {
	status := "OK"
	if !r.OK {
		status = "FAIL(" + r.FailureReason + ")"
	}
	return fmt.Sprintf("%s %s via %s: upload %.2fs, command+reload %.2fs, total %.2fs [%s]",
		r.Device, r.File, r.Protocol, r.UploadTime(), r.CommandTime(), r.Total(), status)
}
