package core

import (
	"strings"
	"testing"
)

func TestTelecommandPing(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	sys.Control.FOP.SendExpress([]byte("ping"))
	sys.Run()
	if len(sys.GroundTMLog) == 0 || sys.GroundTMLog[len(sys.GroundTMLog)-1] != "pong" {
		t.Fatalf("TM log %v", sys.GroundTMLog)
	}
}

func TestTelecommandValidate(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	sys.Control.FOP.SendData([]byte("validate demod-fpga"))
	sys.Run()
	found := false
	for _, l := range sys.GroundTMLog {
		if strings.HasPrefix(l, "crc demod-fpga ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no CRC telemetry: %v", sys.GroundTMLog)
	}
	// The interpreter also recorded it on board.
	if len(sys.TMLog) == 0 {
		t.Fatal("no on-board TM log")
	}
}

func TestTelecommandPowerCycle(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	d, _ := sys.Payload.Chipset().Device("demod-fpga")
	sys.Control.FOP.SendExpress([]byte("power demod-fpga off"))
	sys.Run()
	if d.Powered() {
		t.Fatal("device not powered off by telecommand")
	}
	sys.Control.FOP.SendExpress([]byte("power demod-fpga on"))
	sys.Run()
	if !d.Powered() {
		t.Fatal("device not powered on by telecommand")
	}
}

func TestTelecommandErrors(t *testing.T) {
	sys, err := NewSystem(DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(2)
	for _, cmd := range []string{"frobnicate", "validate ghost", "power ghost on", "power demod-fpga sideways"} {
		sys.Control.FOP.SendExpress([]byte(cmd))
	}
	sys.Run()
	errs := 0
	for _, l := range sys.GroundTMLog {
		if strings.HasPrefix(l, "err") {
			errs++
		}
	}
	if errs != 4 {
		t.Fatalf("expected 4 error TMs, got %d: %v", errs, sys.GroundTMLog)
	}
}
