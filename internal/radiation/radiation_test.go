package radiation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fpga"
)

func TestProfilesMatchTable1(t *testing.T) {
	p := MH1RT()
	if p.GateCapacity != 1_200_000 {
		t.Fatal("MH1RT gate count (Table 1: 1.2 million)")
	}
	if p.TIDKrad != 200 {
		t.Fatal("MH1RT TID rating (Table 1: 200 krad)")
	}
	if p.SEUPerBitDay != 1e-7 {
		t.Fatal("MH1RT GEO SEU rate (Table 1: 1e-7 err/bit/day)")
	}
}

func TestNextGenerationProjection(t *testing.T) {
	// §4.1: "the acceptable TID should increase and reach 300 krad while
	// the number of SEU per bit and per day remains constant".
	now, next := MH1RT(), MH1RTNext()
	if next.TIDKrad != 300 {
		t.Fatal("next-gen TID")
	}
	if next.SEUPerBitDay != now.SEUPerBitDay {
		t.Fatal("next-gen SEU rate must stay constant")
	}
}

func TestFPGAMoreSusceptibleThanASIC(t *testing.T) {
	if SRAMFPGA().SEUPerBitDay <= MH1RT().SEUPerBitDay {
		t.Fatal("SRAM configuration memory must be more upset-prone")
	}
}

func TestEnvironmentFactors(t *testing.T) {
	if (Environment{GEO, SolarQuiet}).SEUFactor() != 1 {
		t.Fatal("GEO quiet is the baseline")
	}
	if (Environment{GEO, SolarFlare}).SEUFactor() <= 1 {
		t.Fatal("flares raise the SEU rate")
	}
}

func TestOrbitActivityStrings(t *testing.T) {
	if GEO.String() != "GEO" {
		t.Fatal("orbit names")
	}
	if SolarQuiet.String() != "quiet" || SolarFlare.String() != "flare" {
		t.Fatal("activity names")
	}
}

func TestMeasuredSEURateMatchesTable1(t *testing.T) {
	// 1 Mbit over 10000 device-days at 1e-7/bit/day → ~1000 upsets;
	// the measured rate must be within 15% of the configured rate.
	rate, upsets := MeasureSEURate(MH1RT(), Environment{GEO, SolarQuiet}, 1_000_000, 10_000, 1)
	if upsets < 700 || upsets > 1300 {
		t.Fatalf("upset count %d implausible", upsets)
	}
	if math.Abs(rate-1e-7)/1e-7 > 0.15 {
		t.Fatalf("measured rate %g vs 1e-7", rate)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	a := NewInjector(MH1RT(), Environment{GEO, SolarQuiet}, 42)
	b := NewInjector(MH1RT(), Environment{GEO, SolarQuiet}, 42)
	for i := 0; i < 10; i++ {
		if a.Upsets(1e6, 10) != b.Upsets(1e6, 10) {
			t.Fatal("injector not deterministic")
		}
	}
}

func TestPoissonMeanAndZero(t *testing.T) {
	in := NewInjector(SRAMFPGA(), Environment{GEO, SolarQuiet}, 7)
	if in.Upsets(1000, 0) != 0 {
		t.Fatal("zero exposure must give zero upsets")
	}
	// Large-lambda path: mean of Po(1e-5 * 1e6 * 10) = 100.
	total := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		total += in.Upsets(1_000_000, 10)
	}
	mean := float64(total) / trials
	if mean < 85 || mean > 115 {
		t.Fatalf("poisson mean %g want ~100", mean)
	}
}

func TestTargetsInRange(t *testing.T) {
	in := NewInjector(MH1RT(), Environment{GEO, SolarQuiet}, 3)
	for _, b := range in.Targets(128, 50) {
		if b < 0 || b >= 128 {
			t.Fatalf("target %d out of range", b)
		}
	}
}

func newLoadedDevice(t *testing.T) (*fpga.Device, *fpga.Bitstream) {
	t.Helper()
	d := fpga.NewDevice("campaign", 16, 16)
	nl := fpga.NewNetlist("c", 4)
	acc := 0
	for i := 1; i < 4; i++ {
		acc = nl.AddGate(fpga.LUTXor, acc, i)
	}
	nl.MarkOutput(acc)
	bs, err := nl.Compile(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FullLoad(bs); err != nil {
		t.Fatal(err)
	}
	d.PowerOn()
	return d, fpga.Snapshot(d, "golden")
}

func TestCampaignWithoutScrubbingAccumulates(t *testing.T) {
	d, golden := newLoadedDevice(t)
	c := &Campaign{
		Device:   d,
		Golden:   golden,
		Injector: NewInjector(SRAMFPGA(), Environment{GEO, SolarFlare}, 11),
		StepDays: 5,
	}
	res := c.Run(200)
	if res.UpsetsInjected == 0 {
		t.Fatal("no upsets injected")
	}
	if res.MaxCorruptFrames == 0 {
		t.Fatal("corruption never observed")
	}
	if res.Availability > 0.9 {
		t.Fatalf("availability %g implausibly high without scrubbing", res.Availability)
	}
}

func TestCampaignScrubbingBoundsCorruption(t *testing.T) {
	mk := func(scrub bool) CampaignResult {
		d, golden := newLoadedDevice(t)
		c := &Campaign{
			Device:   d,
			Golden:   golden,
			Injector: NewInjector(SRAMFPGA(), Environment{GEO, SolarFlare}, 13),
			StepDays: 5,
		}
		if scrub {
			c.Scrubber = fpga.NewBlindScrubber(golden)
			c.ScrubEverySteps = 1
		}
		return c.Run(300)
	}
	without := mk(false)
	with := mk(true)
	if with.MeanCorruptFrames >= without.MeanCorruptFrames {
		t.Fatalf("scrubbing did not reduce occupancy: %g vs %g",
			with.MeanCorruptFrames, without.MeanCorruptFrames)
	}
	if with.Availability <= without.Availability {
		t.Fatalf("scrubbing did not improve availability: %g vs %g",
			with.Availability, without.Availability)
	}
}

func TestCampaignReadbackRepairsOnlyDirty(t *testing.T) {
	d, golden := newLoadedDevice(t)
	c := &Campaign{
		Device:          d,
		Golden:          golden,
		Injector:        NewInjector(SRAMFPGA(), Environment{GEO, SolarFlare}, 17),
		StepDays:        5,
		Scrubber:        fpga.NewReadbackScrubber(golden, fpga.DetectCRC),
		ScrubEverySteps: 2,
	}
	res := c.Run(200)
	// Readback scrubbing writes only the frames it found dirty: some, and
	// far fewer than blind scrubbing (which would do 256/pass).
	if res.FramesRepaired == 0 || res.FramesRepaired > 100*256/4 {
		t.Fatalf("repaired %d frames over 100 passes", res.FramesRepaired)
	}
}

func TestPropertyPoissonNonNegative(t *testing.T) {
	in := NewInjector(SRAMFPGA(), Environment{GEO, SolarQuiet}, 23)
	f := func(bits uint16, dayTenths uint8) bool {
		return in.Upsets(int(bits), float64(dayTenths)/10) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Campaign{StepDays: 0}).Run(1)
}
