package core

import (
	"fmt"
	"sort"

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
	rep := ReconfigReport{Device: device, File: fileName, Protocol: proto, BitstreamBytes: len(data)}
	return sys.reconfigure(rep, rollback, func(stored func(error)) {
		sys.NCC.Upload(fileName, proto, window, stored)
	})
}

// LibraryReconfigure reconfigures device from a file already in on-board
// memory (§3.2's bitstream library): no upload phase, only the COPS
// policy, the five-step procedure and the telemetry report.
func (sys *System) LibraryReconfigure(device, file string, rollback bool) ReconfigReport {
	return sys.reconfigure(ReconfigReport{Device: device, File: file}, rollback, func(stored func(error)) { stored(nil) })
}

// reconfigure is the part of a reconfiguration both routes share. stage
// gets the file into on-board memory and calls stored once it is there;
// stored pushes the COPS policy for it. The event queue then runs to
// completion, and the device's report decides the outcome.
func (sys *System) reconfigure(rep ReconfigReport, rollback bool, stage func(stored func(error))) ReconfigReport {
	rep.UploadStart = sys.Sim.Now()
	before := len(sys.NCC.Reports)
	staged := false
	stage(func(err error) {
		if err != nil {
			rep.FailureReason = "upload: " + err.Error()
			return
		}
		staged = true
		rep.UploadDone = sys.Sim.Now()
		sys.NCC.PushPolicy(ftp.Policy{
			Device: rep.Device, Design: rep.File, Validate: true, Rollback: rollback,
		})
	})
	sys.Run()

	if !staged {
		if rep.FailureReason == "" {
			rep.FailureReason = "upload incomplete"
		}
		return rep
	}
	for _, r := range sys.NCC.Reports[before:] {
		if r.Device == rep.Device {
			rep.ReconfigDone, rep.OK, rep.FailureReason = r.Time, r.OK, r.Reason
			return rep
		}
	}
	rep.FailureReason = "no telemetry report received"
	return rep
}

// MigrateWaveform performs the Fig 3 migration on every DEMOD device:
// upload the new waveform's bitstreams and reconfigure each device in
// sequence, in device-name order, returning one report per device.
func (sys *System) MigrateWaveform(mode payload.WaveformMode, proto ncc.Protocol, window int) []ReconfigReport {
	return sys.reconfigureEach(sys.Payload.DemodBitstreams(mode), proto, window)
}

// SwapDecoder performs the §2.3 decoder reconfiguration on every DECOD
// device, in device-name order.
func (sys *System) SwapDecoder(codecName string, proto ncc.Protocol, window int) []ReconfigReport {
	return sys.reconfigureEach(sys.Payload.DecodBitstreams(codecName), proto, window)
}

// reconfigureEach ground-reconfigures every device of a per-device
// bitstream map in device-name order, so the uploads and their reports
// do not follow Go's map order.
func (sys *System) reconfigureEach(bitstreams map[string]*fpga.Bitstream, proto ncc.Protocol, window int) []ReconfigReport {
	devices := make([]string, 0, len(bitstreams))
	for dev := range bitstreams {
		devices = append(devices, dev)
	}
	sort.Strings(devices)
	out := make([]ReconfigReport, len(devices))
	for i, dev := range devices {
		out[i] = sys.GroundReconfigure(dev, bitstreams[dev], proto, window, true)
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
