package experiments

import (
	"math/rand"

	"repro/internal/fpga"
	"repro/internal/gates"
	"repro/internal/radiation"
)

// E1Table1 reproduces Table 1 (MH1RT characteristics) and verifies the
// GEO SEU figure by Monte-Carlo fault injection over deviceDays
// device-days on a 1.2 Mbit memory.
func E1Table1(deviceDays float64, seed int64) *Table {
	p := radiation.MH1RT()
	next := radiation.MH1RTNext()
	fpgaProf := radiation.SRAMFPGA()
	env := radiation.Environment{Orbit: radiation.GEO, Activity: radiation.SolarQuiet}

	nbits := 1_200_000
	measured, upsets := radiation.MeasureSEURate(p, env, nbits, deviceDays, seed)

	t := &Table{
		Title:   "E1 / Table 1: space device characteristics (paper vs model)",
		Columns: []string{"MH1RT (paper)", "MH1RT (model)", "0.18um (proj)", "SRAM FPGA"},
	}
	t.Rows = append(t.Rows,
		Row{"number of gates", []string{"1.2 million", f("%d", p.GateCapacity), f("%d", next.GateCapacity), f("%d", fpgaProf.GateCapacity)}},
		Row{"voltage", []string{"2.5 to 5V", "2.5 to 5V", "1.8V core", "1.5-2.5V"}},
		Row{"TID rating (krad)", []string{"200", f("%.0f", p.TIDKrad), f("%.0f", next.TIDKrad), f("%.0f", fpgaProf.TIDKrad)}},
		Row{"SEU GEO (err/bit/day)", []string{"1e-7", f("%.2e", p.SEUPerBitDay), f("%.2e", next.SEUPerBitDay), f("%.2e", fpgaProf.SEUPerBitDay)}},
		Row{"SEU GEO measured (Monte-Carlo)", []string{"-", f("%.2e", measured), "-", "-"}},
		Row{"upsets observed", []string{"-", f("%d", upsets), "-", "-"}},
	)
	t.Notes = append(t.Notes,
		f("Monte-Carlo over %.0f device-days, %d bits; measured rate must sit near the Table-1 1e-7 figure", deviceDays, nbits))
	return t
}

// E6Result carries the mitigation study outputs for assertions.
type E6Result struct {
	Table *Table
	// TMRFalseEventRatio is measured false-event probability divided by
	// pe^2 (should be O(1)).
	TMRFalseEventRatio float64
	// TMROverhead and DupOverhead are gate-count ratios.
	TMROverhead float64
	DupOverhead float64
	// ScrubbedAvailability / UnscrubbedAvailability from the campaign.
	ScrubbedAvailability   float64
	UnscrubbedAvailability float64
}

// E6Mitigation reproduces the §4.3 claims: the TMR false-event
// probability pe^2, the gate overheads of TMR (>3x) and duplication
// (>2x), detection storage costs, and the scrubbing campaign.
func E6Mitigation(trials int, pe float64, campaignSteps int, seed int64) *E6Result {
	res := &E6Result{}
	rng := rand.New(rand.NewSource(seed))

	// --- TMR false-event probability: three independent copies, each
	// wrong with probability pe; a false event needs >=2 wrong. ---
	// Analytic: 3 pe^2 (1-pe) + pe^3. Monte-Carlo on the voter circuit.
	voter := fpga.NewNetlist("voter", 3)
	ab := voter.AddGate(fpga.LUTAnd, 0, 1)
	aOrB := voter.AddGate(fpga.LUTOr, 0, 1)
	cAnd := voter.AddGate(fpga.LUTAnd, 2, aOrB)
	maj := voter.AddGate(fpga.LUTOr, ab, cAnd)
	voter.MarkOutput(maj)

	falseEvents := 0
	for i := 0; i < trials; i++ {
		truth := rng.Intn(2) == 1
		in := make([]bool, 3)
		for c := 0; c < 3; c++ {
			v := truth
			if rng.Float64() < pe {
				v = !v
			}
			in[c] = v
		}
		if voter.Eval(in)[0] != truth {
			falseEvents++
		}
	}
	measured := float64(falseEvents) / float64(trials)
	res.TMRFalseEventRatio = measured / (pe * pe)

	// --- Gate overheads on a representative circuit. ---
	base := fpga.NewNetlist("parity16", 16)
	acc := 0
	for i := 1; i < 16; i++ {
		acc = base.AddGate(fpga.LUTXor, acc, i)
	}
	base.MarkOutput(acc)
	res.TMROverhead = fpga.GateOverhead(base, fpga.TMR(base))
	res.DupOverhead = fpga.GateOverhead(base, fpga.DuplicateXOR(base))

	// --- Detection storage: memorize-the-file vs per-cell CRC. ---
	golden := fpga.NewBitstream("golden", 32, 32)
	full := fpga.NewReadbackScrubber(golden, fpga.DetectCompareFull)
	crc := fpga.NewReadbackScrubber(golden, fpga.DetectCRC)

	// --- Scrubbing campaign: flare conditions on an SRAM FPGA. ---
	runCampaign := func(scrub bool) radiation.CampaignResult {
		c := flareCampaign(seed + 7)
		if scrub {
			c.Scrubber = fpga.NewBlindScrubber(c.Golden)
			c.ScrubEverySteps = 1
		}
		return c.Run(campaignSteps)
	}
	noScrub := runCampaign(false)
	withScrub := runCampaign(true)
	res.UnscrubbedAvailability = noScrub.Availability
	res.ScrubbedAvailability = withScrub.Availability

	analytic := 3*pe*pe*(1-pe) + pe*pe*pe
	t := &Table{
		Title:   "E6 / sec 4.3: SEU mitigation techniques",
		Columns: []string{"value"},
	}
	t.Rows = append(t.Rows,
		Row{f("TMR false events, pe=%.3f (measured)", pe), []string{f("%.3e", measured)}},
		Row{"TMR false events (paper: pe^2)", []string{f("%.3e", pe*pe)}},
		Row{"TMR false events (exact: 3pe^2(1-pe)+pe^3)", []string{f("%.3e", analytic)}},
		Row{"TMR gate overhead (paper: >3x)", []string{f("%.2fx", res.TMROverhead)}},
		Row{"duplicate+XOR overhead (paper: >2x)", []string{f("%.2fx", res.DupOverhead)}},
		Row{"readback-compare storage (bytes)", []string{f("%d", full.StorageBytes())}},
		Row{"per-cell CRC storage (bytes)", []string{f("%d", crc.StorageBytes())}},
		Row{"availability without scrubbing", []string{f("%.3f", noScrub.Availability)}},
		Row{"availability with blind scrubbing", []string{f("%.3f", withScrub.Availability)}},
		Row{"mean corrupt frames (no scrub)", []string{f("%.2f", noScrub.MeanCorruptFrames)}},
		Row{"mean corrupt frames (scrubbed)", []string{f("%.2f", withScrub.MeanCorruptFrames)}},
	)
	t.Notes = append(t.Notes,
		"paper: 'SEU scrubbing ... is the most interesting solution for satellite applications'",
		f("campaign: SRAM FPGA, solar flare, %d steps of 2 days", campaignSteps))
	res.Table = t
	return res
}

// flareCampaign is the SEU campaign of E6 and the scrubber ablation: a
// 4-input XOR design on a 32x32 SRAM FPGA under a GEO solar flare, in
// steps of 2 days, with no scrubber yet.
func flareCampaign(seed int64) *radiation.Campaign {
	d := fpga.NewDevice("dut", 32, 32)
	nl := fpga.NewNetlist("w", 4)
	a := 0
	for i := 1; i < 4; i++ {
		a = nl.AddGate(fpga.LUTXor, a, i)
	}
	nl.MarkOutput(a)
	bs, _ := nl.Compile(32, 32)
	d.FullLoad(bs)
	d.PowerOn()
	return &radiation.Campaign{
		Device:   d,
		Golden:   fpga.Snapshot(d, "golden"),
		Injector: radiation.NewInjector(radiation.SRAMFPGA(), radiation.Environment{Orbit: radiation.GEO, Activity: radiation.SolarFlare}, seed),
		StepDays: 2,
	}
}

// E6ScrubbingSweep produces the scrubbing-interval vs occupancy curve.
func E6ScrubbingSweep(campaignSteps int, intervals []int, seed int64) *Table {
	t := &Table{
		Title:   "E6b: scrubbing interval vs configuration-error occupancy",
		Columns: []string{"mean corrupt frames", "availability", "port writes"},
	}
	for _, iv := range intervals {
		c := flareCampaign(seed)
		label := "no scrubbing"
		if iv > 0 {
			c.Scrubber = fpga.NewBlindScrubber(c.Golden)
			c.ScrubEverySteps = iv
			label = f("scrub every %d steps", iv)
		}
		r := c.Run(campaignSteps)
		_, pw, _ := c.Device.Stats()
		t.Rows = append(t.Rows, Row{label, []string{
			f("%.2f", r.MeanCorruptFrames), f("%.3f", r.Availability), f("%d", pw)}})
	}
	t.Notes = append(t.Notes, "shorter scrub intervals bound the error occupancy at the cost of config-port bandwidth")
	return t
}

// E2Complexity reproduces the §2.3 gate-count comparison.
func E2Complexity(maxUsers int) *Table {
	t := &Table{
		Title:   "E2 / sec 2.3: gate complexity of the waveform swap",
		Columns: []string{"gates", "fits 200k profile"},
	}
	tdma := gates.TDMATimingRecovery(6)
	profile := 220_000 // the paper's 200k with placement margin
	t.Rows = append(t.Rows, Row{"TDMA timing recovery, 6 carriers (paper: 200000)",
		[]string{f("%d", tdma.TotalGates()), f("%v", tdma.TotalGates() <= profile)}})
	for u := 1; u <= maxUsers; u++ {
		d := gates.CDMADemodulator(u)
		t.Rows = append(t.Rows, Row{f("CDMA demodulator, %d user(s)%s", u, map[bool]string{true: " (paper: 200000)", false: ""}[u == 1]),
			[]string{f("%d", d.TotalGates()), f("%v", d.TotalGates() <= profile)}})
	}
	t.Notes = append(t.Notes,
		"paper: 'a change to a TDMA demodulator is compatible with the existing hardware profile'",
		"complexity grows with users: '200000 gates < complexity with several users'")
	return t
}
