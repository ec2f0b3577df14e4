package core

import (
	"strings"
	"testing"

	"repro/internal/ncc"
	"repro/internal/payload"
)

func TestSystemBoots(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2) // let the COPS connection establish
	if sys.Payload.Mode() != payload.ModeNone {
		t.Fatal("boot waveform must be none")
	}
	if len(sys.Payload.Chipset().Devices()) == 0 {
		t.Fatal("no devices")
	}
}

func TestGroundReconfigureTFTP(t *testing.T) {
	testGroundReconfigure(t, ncc.ProtoTFTP)
}

func TestGroundReconfigureSCPSFP(t *testing.T) {
	testGroundReconfigure(t, ncc.ProtoSCPSFP)
}

func testGroundReconfigure(t *testing.T, proto ncc.Protocol) {
	t.Helper()
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)

	bitstreams := sys.Payload.DemodBitstreams(payload.ModeTDMA)
	bs := bitstreams["demod-fpga"]
	rep := sys.GroundReconfigure("demod-fpga", bs, proto, 16, true)
	if !rep.OK {
		t.Fatalf("reconfiguration failed: %s", rep.FailureReason)
	}
	if rep.UploadTime() <= 0 || rep.CommandTime() <= 0 {
		t.Fatalf("timeline: %+v", rep)
	}
	if sys.Payload.Mode() != payload.ModeTDMA {
		t.Fatalf("mode after migration: %v", sys.Payload.Mode())
	}
	// The telemetry channel must have carried the validation CRC.
	found := false
	for _, l := range sys.Telemetry {
		if strings.Contains(l, "valid=true") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no validation telemetry: %v", sys.Telemetry)
	}
}

func TestUploadTimeTFTPSlowerThanSCPS(t *testing.T) {
	times := map[ncc.Protocol]float64{}
	for _, proto := range []ncc.Protocol{ncc.ProtoTFTP, ncc.ProtoSCPSFP} {
		sys, err := NewSystem(DefaultSystemConfig())
		if err != nil {
			t.Fatal(err)
		}
		sys.RunUntil(2)
		bs := sys.Payload.DemodBitstreams(payload.ModeTDMA)["demod-fpga"]
		rep := sys.GroundReconfigure("demod-fpga", bs, proto, 32, true)
		if !rep.OK {
			t.Fatalf("%v failed: %s", proto, rep.FailureReason)
		}
		times[proto] = rep.UploadTime()
	}
	// A 32x32 device bitstream is ~4 kB: 9 TFTP blocks at ~0.26 s each
	// vs a handful of windowed TCP round trips.
	if times[ncc.ProtoSCPSFP] >= times[ncc.ProtoTFTP] {
		t.Fatalf("scps %.2fs should beat tftp %.2fs",
			times[ncc.ProtoSCPSFP], times[ncc.ProtoTFTP])
	}
}

func TestMigrateWaveformAllDevices(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	sys.Payload.SetWaveform(payload.ModeCDMA)
	if sys.Payload.Mode() != payload.ModeCDMA {
		t.Fatal("boot CDMA")
	}
	reports := sys.MigrateWaveform(payload.ModeTDMA, ncc.ProtoSCPSFP, 16)
	for _, r := range reports {
		if !r.OK {
			t.Fatalf("migration failed: %s", r)
		}
	}
	if sys.Payload.Mode() != payload.ModeTDMA {
		t.Fatal("mode after migration")
	}
}

// Under PerFunction DEMOD spans two devices: every migration uploads and
// reports them in device-name order, not in the bitstream map's order.
func TestMigrateWaveformDeviceOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		cfg := DefaultSystemConfig()
		cfg.Payload.Strategy = payload.PerFunction
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.RunUntil(2)
		var devices []string
		for _, r := range sys.MigrateWaveform(payload.ModeTDMA, ncc.ProtoSCPSFP, 16) {
			devices = append(devices, r.Device)
		}
		if strings.Join(devices, ",") != "carrier-fpga,timing-fpga" {
			t.Fatalf("system %d reconfigured %v", i, devices)
		}
	}
}

func TestSwapDecoder(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	reports := sys.SwapDecoder("turbo-r1/3", ncc.ProtoSCPSFP, 16)
	for _, r := range reports {
		if !r.OK {
			t.Fatalf("decoder swap failed: %s", r)
		}
	}
	c, err := sys.Payload.Codec()
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "turbo-r1/3" {
		t.Fatalf("codec %s", c.Name())
	}
}

func TestReconfigureOverIPsec(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.IPsec = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	bs := sys.Payload.DemodBitstreams(payload.ModeCDMA)["demod-fpga"]
	rep := sys.GroundReconfigure("demod-fpga", bs, ncc.ProtoSCPSFP, 16, true)
	if !rep.OK {
		t.Fatalf("IPsec reconfiguration failed: %s", rep.FailureReason)
	}
}

func TestReconfigureOverLossyLink(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.BER = 2e-6
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	bs := sys.Payload.DemodBitstreams(payload.ModeTDMA)["demod-fpga"]
	rep := sys.GroundReconfigure("demod-fpga", bs, ncc.ProtoSCPSFP, 16, true)
	if !rep.OK {
		t.Fatalf("lossy-link reconfiguration failed: %s", rep.FailureReason)
	}
	if sys.Payload.Mode() != payload.ModeTDMA {
		t.Fatal("mode after lossy migration")
	}
}

func TestUnknownCatalogFileFails(t *testing.T) {
	sys, _ := NewSystem(DefaultSystemConfig())
	sys.RunUntil(2)
	gotErr := false
	sys.NCC.Upload("ghost.bit", ncc.ProtoTFTP, 8, func(err error) { gotErr = err != nil })
	sys.Run()
	if !gotErr {
		t.Fatal("missing catalog entry must fail")
	}
}

func TestReportString(t *testing.T) {
	r := ReconfigReport{Device: "d", File: "f.bit", OK: true, UploadStart: 0, UploadDone: 1, ReconfigDone: 2}
	if !strings.Contains(r.String(), "OK") {
		t.Fatal("report formatting")
	}
}
