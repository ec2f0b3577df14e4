package experiments

import (
	"math"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/fpga"
	"repro/internal/modem"
	"repro/internal/sim"
	"repro/internal/tmtc"
)

// AblationTiming compares the two timing-recovery options the paper
// cites for the TDMA demodulator — the closed-loop Gardner detector [5]
// and the feedforward Oerder-Meyr estimator [6] — across burst lengths,
// reproducing §2.3's "depending on the stream to be demodulated (length
// of the bursts in the TDMA frame)". The Gardner loop needs an
// acquisition run-in, so short bursts favour the feedforward estimator.
func AblationTiming(payloadSymbols []int, burstsPerPoint int, ebn0dB float64, seed int64) *Table {
	t := &Table{
		Title:   "Ablation: Gardner [5] vs Oerder-Meyr [6] timing recovery",
		Columns: []string{"gardner BER", "oerder-meyr BER"},
	}
	for _, ps := range payloadSymbols {
		bers := map[modem.TimingMode]float64{}
		for _, mode := range []modem.TimingMode{modem.TimingGardner, modem.TimingOerderMeyr} {
			sps := 2
			if mode == modem.TimingOerderMeyr {
				sps = 4
			}
			f := modem.DefaultBurstFormat(ps)
			mod := modem.NewBurstModulator(f, 0.35, sps, 10)
			dem := modem.NewBurstDemodulator(f, 0.35, sps, 10, mode)
			rng := rand.New(rand.NewSource(seed))
			errs, total := 0, 0
			for b := 0; b < burstsPerPoint; b++ {
				payload := randBits(rng, f.PayloadBits())
				tx := mod.Modulate(payload)
				ch := dsp.NewChannelWith(seed+int64(b)+13, ebn0dB+10*math.Log10(2), sps)
				ch.TimingOffset = rng.Float64() * 0.9
				ch.PhaseOffset = rng.Float64() - 0.5
				errs += softErrors(payload, dem.Demodulate(ch.Apply(tx)).Soft)
				total += f.PayloadBits()
			}
			bers[mode] = float64(errs) / float64(total)
		}
		t.Rows = append(t.Rows, Row{f("%d-symbol payload", ps), []string{
			f("%.2e", bers[modem.TimingGardner]), f("%.2e", bers[modem.TimingOerderMeyr])}})
	}
	t.Notes = append(t.Notes,
		"the feedforward estimator needs no run-in, so it wins on short bursts; the closed loop amortizes over long streams")
	return t
}

// AblationScrubbers compares the three repair schemes of §4.3 on the
// same upset sequence: blind rewrite, readback with full-file compare,
// readback with per-cell CRC.
func AblationScrubbers(steps int, seed int64) *Table {
	t := &Table{
		Title:   "Ablation: scrubbing schemes (sec 4.3)",
		Columns: []string{"storage (B)", "readbacks", "partial writes", "availability"},
	}
	type scheme struct {
		name string
		mk   func(golden *fpga.Bitstream) fpga.Scrubber
	}
	schemes := []scheme{
		{"blind scrub", func(g *fpga.Bitstream) fpga.Scrubber { return fpga.NewBlindScrubber(g) }},
		{"readback + full compare", func(g *fpga.Bitstream) fpga.Scrubber { return fpga.NewReadbackScrubber(g, fpga.DetectCompareFull) }},
		{"readback + per-cell CRC", func(g *fpga.Bitstream) fpga.Scrubber { return fpga.NewReadbackScrubber(g, fpga.DetectCRC) }},
	}
	for _, sc := range schemes {
		c := flareCampaign(seed)
		s := sc.mk(c.Golden)
		c.Scrubber, c.ScrubEverySteps = s, 1
		res := c.Run(steps)
		_, pw, rb := c.Device.Stats()
		t.Rows = append(t.Rows, Row{sc.name, []string{
			f("%d", s.StorageBytes()), f("%d", rb), f("%d", pw), f("%.3f", res.Availability)}})
	}
	t.Notes = append(t.Notes,
		"blind scrubbing needs no readback but rewrites every frame each pass",
		"per-cell CRC halves the golden-reference storage vs memorizing the file (sec 4.3)")
	return t
}

// AblationTCModes compares the express (BD) and controlled (AD)
// telecommand modes of §3.3 for a small test exchange and a large
// configuration transfer, with and without link errors.
func AblationTCModes(seed int64) *Table {
	t := &Table{
		Title:   "Ablation: express (BD) vs controlled (AD) telecommand modes",
		Columns: []string{"time (s)", "delivered", "retransmissions"},
	}
	run := func(size int, express bool, ber float64) (float64, bool, int) {
		s := sim.New()
		s.MaxEvents = 5_000_000
		link := tmtc.NewGEOLink(s, 2_000_000, 512_000, ber, seed)
		gm, sm := tmtc.NewFrameMux(), tmtc.NewFrameMux()
		gm.Attach(link.End(tmtc.Ground))
		sm.Attach(link.End(tmtc.Space))
		ch := tmtc.NewChannel(s, link, gm, sm, 7, 8, 1.5)
		received := 0
		want := size
		var doneAt float64 = -1
		ch.FARM.Deliver = func(d []byte) {
			received += len(d)
			if received >= want {
				doneAt = s.Now()
			}
		}
		ch.FARM.DeliverExpress = ch.FARM.Deliver
		data := make([]byte, size)
		if express {
			ch.FOP.SendExpress(data)
		} else {
			ch.FOP.SendData(data)
		}
		s.Run()
		return doneAt, received >= want, ch.FOP.Retransmissions()
	}
	cases := []struct {
		label   string
		size    int
		express bool
		ber     float64
	}{
		{"small test, BD, clean", 256, true, 0},
		{"small test, AD, clean", 256, false, 0},
		{"64 kB config, BD, BER 1e-5", 64 * 1024, true, 1e-5},
		{"64 kB config, AD, BER 1e-5", 64 * 1024, false, 1e-5},
	}
	for _, c := range cases {
		dt, ok, retx := run(c.size, c.express, c.ber)
		timeStr := "-"
		if dt >= 0 {
			timeStr = f("%.2f", dt)
		}
		t.Rows = append(t.Rows, Row{c.label, []string{timeStr, f("%v", ok), f("%d", retx)}})
	}
	t.Notes = append(t.Notes,
		"express mode suits the question/response test phase; only the controlled mode survives a lossy link",
		"paper: 'The controlled mode is well suited to the reliable transfer of data configuration'")
	return t
}
