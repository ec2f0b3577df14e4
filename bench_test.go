package repro

// One benchmark per experiment in DESIGN.md's index. Each iteration
// regenerates the corresponding table/figure at reduced (but still
// meaningful) parameters; cmd/experiments runs the full-size versions.

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/gates"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/switchfab"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func BenchmarkE1_Table1_DeviceCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E1Table1(1000, int64(i)+1)
		tab.Print(io.Discard)
	}
}

func BenchmarkE2_GateComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E2Complexity(8)
		tab.Print(io.Discard)
		// Ablation: the per-design breakdowns.
		_ = gates.TDMATimingRecovery(6).Report()
		_ = gates.CDMADemodulator(4).Report()
	}
}

func BenchmarkE3_WaveformMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E3Migration([]float64{4, 6}, 2000, int64(i)+1)
		res.Table.Print(io.Discard)
	}
}

func BenchmarkE3_CDMABERPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.CDMABERPoint(6, 2000, int64(i)+1)
	}
}

func BenchmarkE3_TDMABERPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TDMABERPoint(6, 2000, int64(i)+1)
	}
}

func BenchmarkE4_ReconfigurationTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E4Timeline(int64(i) + 1)
		res.Table.Print(io.Discard)
	}
}

func BenchmarkE5_TransferProtocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E5Protocols([]int{16 * 1024}, int64(i)+1)
		tab.Print(io.Discard)
	}
}

func BenchmarkE6_SEUMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E6Mitigation(200_000, 0.01, 60, int64(i)+1)
		res.Table.Print(io.Discard)
	}
}

func BenchmarkE6_ScrubbingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E6ScrubbingSweep(60, []int{0, 4, 1}, int64(i)+1)
		tab.Print(io.Discard)
	}
}

func BenchmarkE7_PayloadPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E7Partitioning(int64(i) + 1)
		res.Table.Print(io.Discard)
	}
}

func BenchmarkE8_DecoderReconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E8Decoders([]float64{3}, 3000, int64(i)+1)
		res.Table.Print(io.Discard)
	}
}

func BenchmarkE9_PowerAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E9Power()
		tab.Print(io.Discard)
	}
}

func BenchmarkE6c_PayloadAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E6PayloadAvailabilityComparison(30, int64(i)+1)
		tab.Print(io.Discard)
	}
}

// BenchmarkProcessFrame measures the per-carrier receive pipeline: one
// MF-TDMA frame (demod + decode + switch for every carrier) on the
// sequential per-carrier loop versus the concurrent batch path, at 1
// and 8 carriers. The speedup at 8 carriers tracks min(GOMAXPROCS, 8).
func BenchmarkProcessFrame(b *testing.B) {
	makeFrame := func(carriers int) (*payload.Payload, []dsp.Vec, int) {
		cfg := payload.DefaultConfig()
		cfg.Carriers = carriers
		pl, err := payload.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
			b.Fatal(err)
		}
		if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
			b.Fatal(err)
		}
		codec, err := pl.Codec()
		if err != nil {
			b.Fatal(err)
		}
		const infoLen = 180
		need := codec.EncodedLen(infoLen)
		pl.SetBurstCodedBits(need)
		f := pl.BurstFormat()
		mod := modem.NewBurstModulator(f, 0.35, 4, 10)
		rng := rand.New(rand.NewSource(1))
		rx := make([]dsp.Vec, carriers)
		for c := range rx {
			info := make([]byte, infoLen)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			coded := codec.Encode(info)
			padded := make([]byte, f.PayloadBits())
			copy(padded, coded)
			ch := dsp.NewChannelWith(int64(c)+1, 9+10*math.Log10(2*codec.Rate()), 4)
			rx[c] = ch.Apply(mod.Modulate(padded))
		}
		return pl, rx, need
	}
	for _, carriers := range []int{1, 8} {
		pl, rx, need := makeFrame(carriers)
		b.Run(fmt.Sprintf("sequential-%dcarrier", carriers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for c := range rx {
					soft, err := pl.DemodulateCarrier(c, rx[c])
					if err != nil {
						b.Fatal(err)
					}
					bits, err := pl.Decode(soft[:need])
					if err != nil {
						b.Fatal(err)
					}
					pl.Switch().Route(0, fec.PackBits(bits))
				}
				pl.Switch().Drain(0)
			}
		})
		b.Run(fmt.Sprintf("concurrent-%dcarrier", carriers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.ProcessFrame(0, rx); err != nil {
					b.Fatal(err)
				}
				pl.Switch().Drain(0)
			}
		})
	}
}

// BenchmarkTransmitFrameGrid measures the downlink transmit pipeline:
// one full (carrier, slot) grid (encode + modulate + DUC stack + DAC)
// on the sequential reference versus the concurrent
// Transmitter.TransmitFrameGrid, at 3 carriers x 4 slots. The speedup
// tracks min(GOMAXPROCS, carriers).
func BenchmarkTransmitFrameGrid(b *testing.B) {
	const carriers = 3
	const infoLen = 180
	fcfg := modem.FrameConfig{Carriers: carriers, Slots: 4, SlotSymbols: 320, GuardSymbols: 16}
	plan := frontend.CarrierPlan{Carriers: carriers, Spacing: 0.2, Decim: 4}
	setup := func() (*payload.Payload, *payload.Transmitter, [][][]byte) {
		cfg := payload.DefaultConfig()
		cfg.Carriers = carriers
		pl, err := payload.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
			b.Fatal(err)
		}
		if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		grid := make([][][]byte, carriers)
		for c := range grid {
			grid[c] = make([][]byte, fcfg.Slots)
			for s := range grid[c] {
				info := make([]byte, infoLen)
				for i := range info {
					info[i] = byte(rng.Intn(2))
				}
				grid[c][s] = info
			}
		}
		return pl, payload.NewTransmitter(pl, plan), grid
	}

	b.Run("sequential", func(b *testing.B) {
		pl, tx, grid := setup()
		mod := modem.NewBurstModulator(pl.BurstFormat(), 0.35, plan.Decim, 10)
		// A private DUC bank, not frontend.Mux: Mux.Process now fans out
		// over the worker pool, so the baseline must re-create the
		// strictly sequential pre-pipeline path by hand.
		cutoff := plan.Spacing / 2 * 0.9
		ducs := make([]*dsp.DUC, carriers)
		for c := range ducs {
			ducs[c] = dsp.NewDUC(plan.Freq(c), cutoff, 95, plan.Decim)
		}
		dac := frontend.NewDAC(12, 4)
		slotLen := fcfg.SlotSymbols * plan.Decim
		carrierLen := fcfg.Slots*slotLen + payload.TxTailMargin
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wide dsp.Vec
			for c := 0; c < carriers; c++ {
				buf := dsp.NewVec(carrierLen)
				for s, info := range grid[c] {
					pb, err := tx.EncodeBurst(info)
					if err != nil {
						b.Fatal(err)
					}
					copy(buf[s*slotLen:], mod.Modulate(pb))
				}
				v := ducs[c].Process(buf)
				if wide == nil {
					wide = v
				} else {
					wide.Add(v)
				}
			}
			dac.Convert(wide)
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		_, tx, grid := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wide, err := tx.TransmitFrameGrid(fcfg, grid)
			if err != nil {
				b.Fatal(err)
			}
			dsp.PutVec(wide)
		}
	})
}

// BenchmarkTrafficEngine measures one full closed-loop frame of the
// traffic engine (DAMA, uplink modulate + demod + decode + switch,
// queue drain, downlink grid transmit) at a moderately loaded 3x4 grid.
// The frames run in one RunFrames call, so at GOMAXPROCS > 1 each
// frame's egress overlaps the next frame's ingest: the width-2 over
// width-1 ratio prices the cross-frame overlap plus the fan-outs.
func BenchmarkTrafficEngine(b *testing.B) {
	cfg := payload.DefaultConfig()
	cfg.Carriers = 3
	pl, err := payload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		b.Fatal(err)
	}
	if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
		b.Fatal(err)
	}
	tcfg := traffic.DefaultConfig()
	tcfg.Frame = modem.FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: 320, GuardSymbols: 16}
	tcfg.EbN0dB = 9
	eng, err := traffic.New(pl, tcfg, []traffic.Terminal{
		{ID: "t0", Beam: 0, Model: traffic.CBR{Cells: 2}},
		{ID: "t1", Beam: 1, Model: traffic.CBR{Cells: 2}},
		{ID: "t2", Beam: 2, Model: traffic.OnOff{On: 2, Off: 1, Cells: 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.RunFrames(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	rep := eng.Report()
	if rep.UplinkBitErrs != 0 {
		b.Fatalf("%d uplink bit errors", rep.UplinkBitErrs)
	}
}

// BenchmarkTrafficEngineTelemetry is BenchmarkTrafficEngine with the
// streaming telemetry backbone attached — per-stage timers on the
// frame step and a JSON flush to a discarded writer every 16 frames.
// The delta to the untimed benchmark prices live observability; the
// acceptance gate holds it under 5% ns/op (the record path is four
// clock-read pairs and bounded sample appends per frame, pinned at
// zero allocations by the traffic and telemetry alloc tests).
func BenchmarkTrafficEngineTelemetry(b *testing.B) {
	cfg := payload.DefaultConfig()
	cfg.Carriers = 3
	pl, err := payload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		b.Fatal(err)
	}
	if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
		b.Fatal(err)
	}
	tcfg := traffic.DefaultConfig()
	tcfg.Frame = modem.FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: 320, GuardSymbols: 16}
	tcfg.EbN0dB = 9
	eng, err := traffic.New(pl, tcfg, []traffic.Terminal{
		{ID: "t0", Beam: 0, Model: traffic.CBR{Cells: 2}},
		{ID: "t1", Beam: 1, Model: traffic.CBR{Cells: 2}},
		{ID: "t2", Beam: 2, Model: traffic.OnOff{On: 2, Off: 1, Cells: 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng.SetStageTimers(traffic.NewStageTimers(reg))
	fl := telemetry.NewFlusher(reg, io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
		if (i+1)%16 == 0 {
			if err := fl.Flush(int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
	rep := eng.Report()
	if rep.UplinkBitErrs != 0 {
		b.Fatalf("%d uplink bit errors", rep.UplinkBitErrs)
	}
}

// BenchmarkTrafficEngineImpaired is BenchmarkTrafficEngine with
// per-terminal channel impairments, so the full burst synchronization
// chain (fourth-power periodogram CFO estimate, unique-word candidate
// search, blockwise phase tracking) sits on the uplink hot path — the
// cost of closing the sync chain shows up as the delta to the clean
// engine benchmark.
func BenchmarkTrafficEngineImpaired(b *testing.B) {
	cfg := payload.DefaultConfig()
	cfg.Carriers = 3
	pl, err := payload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		b.Fatal(err)
	}
	if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
		b.Fatal(err)
	}
	tcfg := traffic.DefaultConfig()
	tcfg.Frame = modem.FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: 320, GuardSymbols: 16}
	tcfg.EbN0dB = 9
	eng, err := traffic.New(pl, tcfg, []traffic.Terminal{
		{ID: "t0", Beam: 0, Model: traffic.CBR{Cells: 2},
			Channel: &traffic.ChannelProfile{CFO: 0.1, Phase: 2.2, Timing: 0.5, Gain: 0.9}},
		{ID: "t1", Beam: 1, Model: traffic.CBR{Cells: 2},
			Channel: &traffic.ChannelProfile{CFO: -0.1, Phase: -3.0, Timing: 0.9, Gain: 1.1}},
		// No Drift here: the engine's frame counter runs across all b.N
		// iterations, so a ramp would walk the CFO out of the acquisition
		// range at large -benchtime; the bench must be b.N-independent.
		{ID: "t2", Beam: 2, Model: traffic.OnOff{On: 2, Off: 1, Cells: 2},
			Channel: &traffic.ChannelProfile{CFO: 0.05, Phase: 1.3, Timing: 0.25}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.RunFrames(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	rep := eng.Report()
	if rep.UplinkFailures != 0 || rep.UplinkBitErrs != 0 {
		b.Fatalf("impaired loop not clean: %d misses, %d bit errors", rep.UplinkFailures, rep.UplinkBitErrs)
	}
}

// BenchmarkTrafficEngineMegapop prices one frame of the two-tier
// aggregate engine at 120 000 modeled members over a 6-beam downlink —
// four populations with four tracer terminals each, so per-frame cost
// is O(populations + tracers + beams), not O(members). This is the
// speedup-gate bench: the per-beam sharded synthesis/fill path spreads
// over GOMAXPROCS workers, so the figure at width NumCPU must stay at
// or below the width-1 figure (cmd/benchjson -speedup-gate).
func BenchmarkTrafficEngineMegapop(b *testing.B) {
	cfg := payload.DefaultConfig()
	cfg.Carriers = 6
	pl, err := payload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		b.Fatal(err)
	}
	if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
		b.Fatal(err)
	}
	tcfg := traffic.DefaultConfig()
	tcfg.Frame = modem.FrameConfig{Carriers: 6, Slots: 4, SlotSymbols: 320, GuardSymbols: 16}
	tcfg.EbN0dB = 9
	beams := []int{0, 1, 2, 3, 4, 5}
	var terms []traffic.Terminal
	var pops []traffic.Population
	add := func(name string, count int, m traffic.AggregateModel) {
		const nt = 4
		members := make([]int, nt)
		for i := range members {
			j := i * count / nt
			members[i] = j
			terms = append(terms, traffic.Terminal{
				ID:    fmt.Sprintf("%s.%d", name, j),
				Beam:  beams[traffic.MemberBeam(j, count, len(beams))],
				Model: m.Member(j),
			})
		}
		pops = append(pops, traffic.Population{
			Name: name, Beams: beams, Count: count, Model: m, TracerMembers: members,
		})
	}
	add("web", 60000, traffic.AggregateBernoulli{P: 0.0002, Cells: 1, Seed: 7})
	add("video", 30000, traffic.AggregateBernoulli{P: 0.0002, Cells: 1, Seed: 8})
	add("voice", 8000, traffic.AggregateBernoulli{P: 0.0005, Cells: 1, Seed: 9})
	add("flash", 22000, traffic.AggregateHotspot{Base: 0, Surge: 1, Period: 8, Width: 2})
	eng, err := traffic.NewPopulations(pl, tcfg, terms, pops)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.RunFrames(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	rep := eng.Report()
	if rep.UplinkBitErrs != 0 {
		b.Fatalf("%d uplink bit errors", rep.UplinkBitErrs)
	}
}

// BenchmarkScenarioSession prices the declarative runtime on the
// registered preset populations: one closed-loop frame driven through
// scenario.Session.Step (event scheduling, metric deltas, observer-free
// path) on the clean and impaired presets. The deltas to the raw
// BenchmarkTrafficEngine/Impaired figures price the session layer; the
// clean/impaired delta prices the sync chain, as before.
func BenchmarkScenarioSession(b *testing.B) {
	for _, name := range []string{"clean", "impaired"} {
		b.Run(name, func(b *testing.B) {
			spec, err := scenario.Preset(name)
			if err != nil {
				b.Fatal(err)
			}
			// Free-run via Step: drop the drifting terminal's ramp so the
			// CFO stays put at any -benchtime (the bench must be
			// b.N-independent), and skip ground verification — the raw
			// engine benches it separately.
			for i := range spec.Terminals {
				if c := spec.Terminals[i].Channel; c != nil {
					c.Drift = 0
				}
			}
			sess, err := scenario.NewSession(spec, scenario.WithVerification(false))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			rep := sess.Report()
			if rep.UplinkFailures != 0 {
				b.Fatalf("%d uplink bursts missed", rep.UplinkFailures)
			}
			// The clean preset must stay error-free at any -benchtime. The
			// impaired preset runs at an Es/N0 where the coded BER is
			// small but nonzero, so at large -benchtime a handful of bit
			// errors is the expected channel behaviour, not a defect; the
			// assertion bounds the error *rate* (a broken sync chain or
			// decoder sits orders of magnitude above 1e-3).
			if name == "clean" {
				if rep.UplinkBitErrs != 0 {
					b.Fatalf("%d uplink bit errors on the clean preset", rep.UplinkBitErrs)
				}
				return
			}
			bits := 0
			for _, ts := range rep.PerTerminal {
				bits += ts.UplinkBits
			}
			if bits > 0 && float64(rep.UplinkBitErrs) > 1e-3*float64(bits) {
				b.Fatalf("uplink BER %d/%d exceeds 1e-3", rep.UplinkBitErrs, bits)
			}
		})
	}
}

// lockedMapSwitch is the seed's single-map switch design plus the one
// global mutex it never had — the baseline BenchmarkSwitchFabric holds
// the sharded fabric against. Every router serializes on the same lock
// regardless of beam.
type lockedMapSwitch struct {
	mu     sync.Mutex
	queues map[int][][]byte
}

func (s *lockedMapSwitch) route(beam int, pkt []byte) {
	s.mu.Lock()
	cp := append([]byte{}, pkt...)
	s.queues[beam] = append(s.queues[beam], cp)
	s.mu.Unlock()
}

func (s *lockedMapSwitch) drain(beam int) [][]byte {
	s.mu.Lock()
	out := s.queues[beam]
	delete(s.queues, beam)
	s.mu.Unlock()
	return out
}

// BenchmarkSwitchFabric prices the switching stage under concurrent
// routers: W workers route a fixed batch of packets across 6 beams,
// the downlink side empties the queues, once on the sharded fabric
// (per-beam locks, preallocated rings, zero-copy typed packets) and
// once on a globally-locked single-map switch (the seed design made
// merely thread-safe). On multi-core hardware the sharded route path
// scales with min(workers, beams) while the single lock serializes;
// the fabric also drains without the per-frame slice allocations.
func BenchmarkSwitchFabric(b *testing.B) {
	const beams = 6
	const batch = 960 // packets routed per op
	pkt := make([]byte, 45)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("sharded-%dworkers", workers), func(b *testing.B) {
			f := switchfab.New(beams, 0)
			f.Adopt(batch / beams)
			emit := func(switchfab.Packet) bool { return true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < batch/workers; j++ {
							f.RoutePacket((w+j)%beams, switchfab.Packet{Bits: pkt})
						}
					}()
				}
				wg.Wait()
				for bm := 0; bm < beams; bm++ {
					f.Schedule(switchfab.FIFO{}, bm, batch, emit)
				}
			}
		})
		b.Run(fmt.Sprintf("single-lock-%dworkers", workers), func(b *testing.B) {
			s := &lockedMapSwitch{queues: make(map[int][][]byte)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < batch/workers; j++ {
							s.route((w+j)%beams, pkt)
						}
					}()
				}
				wg.Wait()
				for bm := 0; bm < beams; bm++ {
					s.drain(bm)
				}
			}
		})
	}
}

// BenchmarkSchedulerFill prices one beam-frame of downlink slot fill
// (route 4 packets across the classes, schedule 4 slots out) per
// scheduler — the FIFO-to-DRR delta is the cost of QoS on the
// steady-state fill path, and the 0 B/op columns document that the
// route→schedule→fill path stays allocation-free.
func BenchmarkSchedulerFill(b *testing.B) {
	drr, err := switchfab.NewDRR(4, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	pkt := make([]byte, 45)
	for _, tc := range []struct {
		name  string
		sched switchfab.Scheduler
	}{
		{"fifo", switchfab.FIFO{}},
		{"strict", switchfab.StrictPriority{BEFloor: 1}},
		{"drr", drr},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const beams, slots = 3, 4
			f := switchfab.New(beams, 0)
			f.Adopt(16)
			emit := func(switchfab.Packet) bool { return true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for bm := 0; bm < beams; bm++ {
					for s := 0; s < slots; s++ {
						f.RoutePacket(bm, switchfab.Packet{Bits: pkt, Class: switchfab.Class(s % switchfab.NumClasses)})
					}
					f.Schedule(tc.sched, bm, slots, emit)
				}
			}
		})
	}
}

// BenchmarkE13_QoS regenerates the QoS switching study at reduced size.
func BenchmarkE13_QoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultE13Config()
		cfg.Frames = 8
		res := experiments.E13QoS(cfg)
		res.Table.Print(io.Discard)
	}
}

// BenchmarkE10_FramePipeline regenerates the E10 latency/speedup table
// at reduced size.
func BenchmarkE10_FramePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E10Pipeline([]int{1, 4}, 2, int64(i)+1)
		res.Table.Print(io.Discard)
	}
}

// Ablation benches for the design choices called out in DESIGN.md §8.

func BenchmarkAblation_TimingRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.AblationTiming([]int{64, 512}, 6, 10, int64(i)+1)
		tab.Print(io.Discard)
	}
}

func BenchmarkAblation_Scrubbers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.AblationScrubbers(40, int64(i)+1)
		tab.Print(io.Discard)
	}
}

func BenchmarkAblation_TCModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.AblationTCModes(int64(i) + 1)
		tab.Print(io.Discard)
	}
}

// BenchmarkCampaign prices the Monte Carlo fleet: one small campaign
// (clean preset, 2 Eb/N0 points × 4 seeds at 4 frames, verification
// off) executed sequentially versus over the full worker pool. On a
// multi-core host the conc/seq ratio prices the fleet scale-out; the
// benchjson speedup gate reads exactly this pair. Each iteration runs
// the whole 8-session campaign.
func BenchmarkCampaign(b *testing.B) {
	off := false
	spec := campaign.Spec{
		Name:         "bench",
		BasePreset:   "clean",
		Frames:       4,
		Seed:         7,
		RunsPerPoint: 4,
		Verify:       &off,
		Axes:         []campaign.AxisSpec{{Kind: "ebn0", Values: []any{6.0, 9.0}}},
		Reducers:     []string{"ber", "goodput"},
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"seq", 1},
		{"conc", pipeline.Workers()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				art, err := campaign.Execute(context.Background(), &spec, campaign.Config{Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if art.CompletedRuns != art.TotalRuns || !art.GatesPassed {
					b.Fatalf("campaign degraded: %d/%d runs, gates %v",
						art.CompletedRuns, art.TotalRuns, art.GatesPassed)
				}
			}
		})
	}
}
