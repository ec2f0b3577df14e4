package gates

import "testing"

func TestPowerFPGAExceedsASIC(t *testing.T) {
	d := TDMATimingRecovery(6)
	clock := 32.768e6 // 16x the 2.048 Mcps chip rate
	asic := EstimatePower(d, ASIC180(), clock, 0.15, 0)
	fpga := EstimatePower(d, FPGA180(), clock, 0.15, d.TotalGates()*4)
	ratio := fpga.TotalW() / asic.TotalW()
	if ratio <= 3 {
		t.Fatalf("FPGA/ASIC power ratio %.1f implausibly low", ratio)
	}
	if ratio > 20 {
		t.Fatalf("FPGA/ASIC power ratio %.1f implausibly high", ratio)
	}
}

func TestPowerScalesWithClockAndActivity(t *testing.T) {
	d := CDMADemodulator(1)
	lo := EstimatePower(d, ASIC180(), 10e6, 0.1, 0)
	hiClock := EstimatePower(d, ASIC180(), 40e6, 0.1, 0)
	hiAct := EstimatePower(d, ASIC180(), 10e6, 0.4, 0)
	if hiClock.DynamicW <= lo.DynamicW || hiAct.DynamicW <= lo.DynamicW {
		t.Fatal("dynamic power must grow with clock and activity")
	}
	if hiClock.StaticW != lo.StaticW {
		t.Fatal("static power is clock-independent")
	}
}

func TestPowerBreakdownComponents(t *testing.T) {
	d := TDMATimingRecovery(6)
	p := EstimatePower(d, FPGA180(), 32e6, 0.15, 1_000_000)
	if p.ConfigW <= 0 {
		t.Fatal("FPGA configuration memory must draw power")
	}
	a := EstimatePower(d, ASIC180(), 32e6, 0.15, 0)
	if a.ConfigW != 0 {
		t.Fatal("ASIC has no configuration memory")
	}
	if p.TotalW() != p.DynamicW+p.StaticW+p.ConfigW {
		t.Fatal("total")
	}
}
