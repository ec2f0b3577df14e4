package radiation

import "repro/internal/fpga"

// Campaign runs a fault-injection campaign against a simulated FPGA:
// time advances in steps, upsets arrive by Poisson draw into the
// configuration memory, and an optional scrubber runs at its own period.
// The output records the corruption occupancy over time — the data behind
// the scrubbing-interval experiment (E6).
type Campaign struct {
	Device   *fpga.Device
	Golden   *fpga.Bitstream
	Injector *Injector

	// StepDays is the simulation step.
	StepDays float64
	// Scrubber, if non-nil, runs every ScrubEverySteps steps.
	Scrubber        fpga.Scrubber
	ScrubEverySteps int
}

// CampaignResult summarizes a run.
type CampaignResult struct {
	UpsetsInjected int
	FramesRepaired int
	// CorruptSteps counts steps that ended with at least one corrupted
	// frame (the design behaviourally faulty).
	CorruptSteps int
	// MeanCorruptFrames is the time-averaged corrupted-frame count.
	MeanCorruptFrames float64
	// MaxCorruptFrames is the worst observed occupancy.
	MaxCorruptFrames int
	// Availability is 1 - CorruptSteps/Steps.
	Availability float64
}

// Run executes the campaign for the given number of steps.
func (c *Campaign) Run(steps int) CampaignResult {
	if c.StepDays <= 0 {
		panic("radiation: campaign step must be positive")
	}
	var res CampaignResult
	bits := c.Device.ConfigBits()
	var occSum float64
	for s := 0; s < steps; s++ {
		n := c.Injector.Upsets(bits, c.StepDays)
		for _, bit := range c.Injector.Targets(bits, n) {
			c.Device.FlipConfigBit(bit)
		}
		res.UpsetsInjected += n

		if c.Scrubber != nil && c.ScrubEverySteps > 0 && (s+1)%c.ScrubEverySteps == 0 {
			res.FramesRepaired += c.Scrubber.Scrub(c.Device)
		}

		corrupt := fpga.CountCorruptedFrames(c.Device, c.Golden)
		occSum += float64(corrupt)
		res.MaxCorruptFrames = max(res.MaxCorruptFrames, corrupt)
		if corrupt > 0 {
			res.CorruptSteps++
		}
	}
	res.MeanCorruptFrames = occSum / float64(steps)
	res.Availability = 1 - float64(res.CorruptSteps)/float64(steps)
	return res
}

// MeasureSEURate runs a pure observation campaign on nbits of memory for
// the given device-days and returns the measured upsets per bit per day —
// the Monte-Carlo verification of Table 1's 1e-7 figure (E1).
func MeasureSEURate(profile DeviceProfile, env Environment, nbits int, days float64, seed int64) (rate float64, upsets int) {
	inj := NewInjector(profile, env, seed)
	// Integrate in day-sized steps to exercise the Poisson path.
	remaining := days
	for remaining > 0 {
		step := min(remaining, 1.0)
		upsets += inj.Upsets(nbits, step)
		remaining -= step
	}
	return float64(upsets) / float64(nbits) / days, upsets
}
