package experiments

import (
	"repro/internal/core"
	"repro/internal/modem"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// E11 exercises the system under sustained MF-TDMA load: a terminal
// population (CBR, bursty on/off, hotspot) issues DAMA requests against
// the slot scheduler every frame, the granted burst time plan runs
// through the closed regenerative loop (demodulate - decode - switch -
// re-encode - remodulate - ground demodulate), and halfway through the
// run the ground performs the §2.3 decoder reconfiguration while the
// queues hold the traffic. The whole run is a declarative script — a
// swap-under-load spec with one scheduled SwapDecoder event, executed
// through the live control plane by a scenario.Session. Correctness is
// the loopback contract: at high SNR every delivered packet must be
// bit-identical to what the terminal sent, frame after frame, across
// the codec swap. Rates are on the model clock (Report.ModelSeconds),
// so the table is a pure function of the config.

// E11Config parameterizes the sustained-load experiment.
type E11Config struct {
	Frames         int // total frames; the decoder swap happens at Frames/2
	Frame          modem.FrameConfig
	CodecA, CodecB string
	QueueDepth     int
	EbN0dB         float64
	Seed           int64
}

// DefaultE11Config returns the full-size run: >= 100 consecutive frames
// over a 3-carrier MF-TDMA grid, convolutional before the swap, turbo
// after.
func DefaultE11Config() E11Config {
	return E11Config{
		Frames:     120,
		Frame:      modem.FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: 320, GuardSymbols: 16},
		CodecA:     "conv-r1/2-k9",
		CodecB:     "turbo-r1/3",
		QueueDepth: 16,
		EbN0dB:     9,
		Seed:       11,
	}
}

// E11Result carries the sustained-load study outputs.
type E11Result struct {
	Table *Table
	// Final is the cumulative run report; Mid is the snapshot taken just
	// before the decoder swap.
	Mid, Final *traffic.Report
	// BitExact is the loopback contract over the whole run: no uplink
	// losses or bit errors, and every transmitted downlink burst
	// demodulated and decoded to the queued bits exactly.
	BitExact bool
	// SwapOK reports whether the mid-run ground reconfiguration
	// succeeded on every DECOD device.
	SwapOK bool
}

// E11Spec is the experiment as a declarative scenario: the mixed study
// population on the configured grid with one SwapDecoder event fired at
// the halfway frame.
func E11Spec(cfg E11Config) scenario.Spec {
	return scenario.Spec{
		Name:        "e11",
		Description: "sustained mixed traffic across a mid-run decoder swap",
		Frames:      cfg.Frames,
		System:      scenario.SystemSpec{Carriers: cfg.Frame.Carriers, Codec: cfg.CodecA},
		Traffic: scenario.TrafficSpec{
			Carriers:     cfg.Frame.Carriers,
			Slots:        cfg.Frame.Slots,
			SlotSymbols:  cfg.Frame.SlotSymbols,
			GuardSymbols: cfg.Frame.GuardSymbols,
			QueueDepth:   cfg.QueueDepth,
			Policy:       "drop-tail",
			EbN0dB:       cfg.EbN0dB,
			Verify:       true,
			Seed:         cfg.Seed,
		},
		Terminals: scenario.MixedPopulationSpec(cfg.Frame.Carriers),
		Events: []scenario.Event{
			{Frame: cfg.Frames / 2, Action: scenario.ActionSwapDecoder, Codec: cfg.CodecB},
		},
	}
}

// E11Traffic runs the sustained-load experiment.
func E11Traffic(cfg E11Config) *E11Result {
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Payload.Carriers = cfg.Frame.Carriers
	sys := boot(sysCfg)

	spec := E11Spec(cfg)
	sess, err := sys.NewSession(spec)
	if err != nil {
		panic(err)
	}
	terms := sess.Engine().Terminals()

	// Step to the swap boundary, snapshot, then let the scripted event
	// fire and run the remainder — the session applies it through the
	// live control plane before the halfway frame. A failed swap aborts
	// the step (the frame has not run yet) but not the experiment: the
	// run continues on the old decoder and SwapOK reports the failure.
	half := cfg.Frames / 2
	var mid *traffic.Report
	for sess.Frame() < cfg.Frames {
		if sess.Frame() == half && mid == nil {
			mid = sess.Report()
		}
		if st, err := sess.Step(); err != nil {
			if n := len(st.Events); n > 0 && st.Events[n-1].Err != nil {
				continue // event failure logged; the frame itself still runs
			}
			panic(err)
		}
	}
	final := sess.Report()

	swapOK := false
	for _, rec := range sess.EventLog() {
		if rec.Action == scenario.ActionSwapDecoder {
			swapOK = rec.Err == nil
		}
	}

	res := &E11Result{
		Mid:    mid,
		Final:  final,
		SwapOK: swapOK,
		BitExact: final.UplinkFailures == 0 && final.UplinkBitErrs == 0 &&
			final.DownlinkLost == 0 && final.DownlinkBitErrs == 0,
	}

	t := &Table{
		Title: f("E11: sustained traffic through the regenerative loop (%s -> %s)", cfg.CodecA, cfg.CodecB),
		Columns: []string{"frames", "granted", "delivered", "kbit/s model",
			"latency fr", "drops", "bit-exact"},
	}
	// row prints the run segment between two cumulative snapshots: every
	// cell, the bit-exact verdict included, is a delta from -> to.
	row := func(label string, from, to *traffic.Report) {
		delivered := to.DeliveredPackets - from.DeliveredPackets
		latMean, kbps := 0.0, 0.0
		if delivered > 0 {
			latMean = float64(to.LatencySum-from.LatencySum) / float64(delivered)
		}
		if s := to.ModelSeconds - from.ModelSeconds; s > 0 {
			kbps = float64(to.DeliveredBits-from.DeliveredBits) / s / 1000
		}
		exact := to.UplinkFailures == from.UplinkFailures && to.UplinkBitErrs == from.UplinkBitErrs &&
			to.DownlinkLost == from.DownlinkLost && to.DownlinkBitErrs == from.DownlinkBitErrs
		t.Rows = append(t.Rows, Row{label, []string{
			f("%d", to.Frames-from.Frames), f("%d", to.GrantedCells-from.GrantedCells), f("%d", delivered),
			f("%.1f", kbps), f("%.2f", latMean),
			f("%d", to.DroppedQueue+to.DroppedReencode-from.DroppedQueue-from.DroppedReencode), f("%v", exact)}})
	}
	start := &traffic.Report{}
	row(f("phase A (%s)", cfg.CodecA), start, mid)
	row(f("phase B (%s)", cfg.CodecB), mid, final)
	row("total", start, final)
	t.Notes = append(t.Notes,
		f("population: %d terminals (CBR, on/off, hotspot) over %d beams, queue depth %d, Eb/N0 %.0f dB",
			len(terms), cfg.Frame.Carriers, cfg.QueueDepth, cfg.EbN0dB),
		f("mid-run SwapDecoder(%s) ok=%v; re-encode drops after the swap are conv-era codewords that no longer fit a turbo burst",
			cfg.CodecB, swapOK),
		"bit-exact = zero uplink losses/bit errors and zero downlink losses/bit errors on ground demodulation")
	res.Table = t
	return res
}
