package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/traffic"
)

// E12 closes the burst synchronization chain under realistic uplink
// channels: every terminal hits the payload with its own carrier
// frequency/phase offset, fractional timing skew and gain — the very
// impairments the paper's MF-TDMA demodulator bank carries feedforward
// frequency recovery and phase tracking for. The experiment sweeps
// Eb/N0 over a fixed impaired population spanning the documented
// acquisition range (CFO up to ±1/10 cycle/symbol, timing across
// [0, 1), phase across (−π, π], gain imbalance, one Doppler-drifting
// terminal) and checks the loopback contract: at or above 6 dB the
// closed loop must deliver every info bit exactly; below it the coded
// BER degrades gracefully rather than collapsing into lost lock.

// E12Config parameterizes the impaired-channel traffic experiment.
type E12Config struct {
	Frames int
	Frame  modem.FrameConfig
	Codec  string
	// EbN0dB are the sweep points; every point >= CleanAbovedB must be
	// error-free end to end.
	EbN0dB       []float64
	CleanAbovedB float64
	// CFOMax (cycles/symbol) bounds the per-terminal CFO spread; the
	// population pins its extremes at ±CFOMax.
	CFOMax float64
	Seed   int64
}

// DefaultE12Config returns the full-size run over the documented
// acquisition range.
func DefaultE12Config() E12Config {
	return E12Config{
		Frames:       40,
		Frame:        modem.FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: 320, GuardSymbols: 16},
		Codec:        "conv-r1/2-k9",
		EbN0dB:       []float64{3, 6, 9},
		CleanAbovedB: 6,
		CFOMax:       0.1,
		Seed:         12,
	}
}

// E12Point is one Eb/N0 sweep point's outcome.
type E12Point struct {
	EbN0dB float64
	Report *traffic.Report
	// BER is the uplink info-bit error rate over decoded bursts.
	BER float64
	// Clean means zero uplink losses/bit errors and a bit-exact
	// ground-verified downlink.
	Clean bool
}

// E12Result carries the impaired-channel study outputs.
type E12Result struct {
	Table  *Table
	Points []E12Point
	// ZeroErrors is the acceptance contract: every sweep point at or
	// above CleanAbovedB ran the impaired population with zero info-bit
	// errors end to end.
	ZeroErrors bool
	// AcqOK means the per-terminal frequency estimates at the highest
	// Eb/N0 point track the injected CFOs within 0.01 cycle/symbol.
	AcqOK bool
}

// e12Population spreads deterministic channel profiles across the
// acquisition range: CFO extremes at ±cfoMax, timing offsets across
// [0, 1), phases across (−π, π], gain imbalance, one Doppler-drifting
// terminal and one clean control.
func e12Population(beams int, cfoMax float64) []traffic.Terminal {
	profiles := []*traffic.ChannelProfile{
		{CFO: cfoMax, Phase: math.Pi, Timing: 0.5, Gain: 0.9},
		{CFO: -cfoMax, Phase: -3.0, Timing: 0.9, Gain: 1.1},
		{CFO: 0.5 * cfoMax, Drift: 0.002, Phase: 1.3, Timing: 0.25},
		{CFO: -0.2 * cfoMax, Phase: -1.8, Timing: 0.75, Gain: 1.05},
		{CFO: 0.8 * cfoMax, Phase: 2.6, Timing: 0.1, Gain: 0.8},
		nil, // clean control rides the same sync chain
	}
	out := make([]traffic.Terminal, len(profiles))
	for i, p := range profiles {
		out[i] = traffic.Terminal{
			ID:      f("t%d", i),
			Beam:    i % beams,
			Model:   traffic.CBR{Cells: 1},
			Channel: p,
		}
	}
	return out
}

// E12Impairments runs the impaired-channel sweep.
func E12Impairments(cfg E12Config) *E12Result {
	res := &E12Result{ZeroErrors: true, AcqOK: true}
	terms := e12Population(cfg.Frame.Carriers, cfg.CFOMax)

	t := &Table{
		Title: f("E12: burst sync chain under per-terminal channel impairments (CFO <= %.2f c/sym, %s)",
			cfg.CFOMax, cfg.Codec),
		Columns: []string{"bursts", "miss", "bit errs", "uplink BER", "min UW", "bit-exact"},
	}

	for _, ebn0 := range cfg.EbN0dB {
		sysCfg := core.DefaultSystemConfig()
		sysCfg.Payload.Carriers = cfg.Frame.Carriers
		sys := boot(sysCfg)
		if err := sys.Payload.SetWaveform(payload.ModeTDMA); err != nil {
			panic(err)
		}
		if err := sys.Payload.SetCodec(cfg.Codec); err != nil {
			panic(err)
		}
		tcfg := traffic.DefaultConfig()
		tcfg.Frame = cfg.Frame
		tcfg.EbN0dB = ebn0
		tcfg.Verify = true
		tcfg.Seed = cfg.Seed
		eng, err := traffic.New(sys.Payload, tcfg, terms)
		if err != nil {
			panic(err)
		}
		if err := eng.RunFrames(cfg.Frames); err != nil {
			panic(err)
		}
		rep := eng.Report()

		bits := 0
		minUW := 1.0
		for _, ts := range rep.PerTerminal {
			bits += ts.UplinkBits
			if ts.SyncBursts > 0 && ts.MinUWMetric < minUW {
				minUW = ts.MinUWMetric
			}
		}
		ber := 0.0
		if bits > 0 {
			ber = float64(rep.UplinkBitErrs) / float64(bits)
		}
		p := E12Point{
			EbN0dB: ebn0,
			Report: rep,
			BER:    ber,
			Clean: rep.UplinkFailures == 0 && rep.UplinkBitErrs == 0 &&
				rep.DownlinkLost == 0 && rep.DownlinkBitErrs == 0,
		}
		res.Points = append(res.Points, p)
		res.ZeroErrors = res.ZeroErrors && !(ebn0 >= cfg.CleanAbovedB && !p.Clean)
		t.Rows = append(t.Rows, Row{f("Eb/N0 %.0f dB", ebn0), []string{
			f("%d", rep.UplinkBursts), f("%d", rep.UplinkFailures),
			f("%d", rep.UplinkBitErrs), f("%.1e", ber),
			f("%.2f", minUW), f("%v", p.Clean)}})
	}

	// Acquisition check at the highest sweep point (wherever it sits in
	// the slice): every impaired terminal's mean |CFO| estimate must
	// track what was injected (the drifting terminal's expectation
	// averages the ramp over the run).
	best := 0
	for i, p := range res.Points {
		if p.EbN0dB > res.Points[best].EbN0dB {
			best = i
		}
	}
	last := res.Points[best].Report
	for i, term := range terms {
		if term.Channel == nil {
			continue
		}
		want := 0.0
		for fr := 0; fr < cfg.Frames; fr++ {
			want += math.Abs(term.Channel.CFO + term.Channel.Drift*float64(fr))
		}
		want /= float64(cfg.Frames)
		ts := last.PerTerminal[i]
		res.AcqOK = res.AcqOK && !(ts.SyncBursts == 0 || math.Abs(ts.MeanAbsCFO-want) > 0.01)
	}

	t.Notes = append(t.Notes,
		f("population: %d terminals, CFO pinned at ±%.2f c/sym plus spread, timing in [0,1), phase across (-pi,pi], one 0.002 c/sym/frame Doppler ramp, one clean control",
			len(terms), cfg.CFOMax),
		f("sync chain: feedforward fourth-power CFO estimate + UW alias candidates + blockwise phase tracking, UW threshold 0.7; contract is zero errors at >= %.0f dB",
			cfg.CleanAbovedB),
		f("frequency acquisition at %.0f dB: per-terminal mean |CFO| estimates within 0.01 c/sym of injected = %v",
			res.Points[best].EbN0dB, res.AcqOK))
	res.Table = t
	return res
}
