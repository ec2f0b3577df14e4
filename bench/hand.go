package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/scenario"
	"repro/internal/switchfab"
	"repro/internal/traffic"
)

const (
	uplinkSPS    = 4    // terminal-side samples per symbol, as the engine's uplink
	rollOff      = 0.35 // RRC roll-off of every modulator and demodulator in the loop
	filterSpan   = 10   // RRC span in symbols
	channelTaps  = 95   // mux/demux channel-filter length
	verifySlack  = 160  // samples the ground receiver reads past a slot for the DUC/DDC group delays
	replayRounds = 6    // passes over the captured frames, so every replay median has dozens of samples
)

// hand drives frames of a workload's shape through the public functions
// the engine itself calls, one burst at a time on one thread, so a span
// can be recorded around each call. It builds the payload the session
// would (payload.New, SetWaveform, SetCodec, the sync chain the engine
// resolved for the population) and keeps its own stand-ins for the
// engine's private bookkeeping: slot grants, the transmit grid and the
// sent-cell list.
type hand struct {
	tr      *tracer
	capture *capture // when set, frames also record the inputs replay needs

	cfg    traffic.Config
	plan   frontend.CarrierPlan
	terms  []handTerm
	pl     *payload.Payload
	fab    *switchfab.Fabric
	tx     *payload.Transmitter
	codec  fec.Codec
	sync   modem.SyncConfig
	k      int // info bits per burst
	budget int // payload bits per burst
	esN0   float64

	slots  *modem.SlotScheduler
	fc     *modem.FrameComposer
	mod    *modem.BurstModulator
	ch     *dsp.Channel
	enc    []byte
	gdemux *frontend.Demux
	gdem   *modem.BurstDemodulator

	cells []handCell
	asgs  []modem.SlotAssignment
	metas []payload.RouteMeta
	grid  [][][]byte
	sent  []handSent
	slot  int                           // next downlink slot of the beam being filled
	emits []func(switchfab.Packet) bool // per beam, built once as the engine's are
	info  []byte                        // flat backing of the frame's info bits

	// Aggregate packets take downlink slots but synthesize no waveform;
	// they enter the fabric at the workload's mean rate.
	aggRate, aggAcc float64
	aggBits         []byte
	aggBeam         int

	f, bursts, failed, scheduled int
}

type handTerm struct {
	term traffic.Terminal
	rng  *rand.Rand
}

type handCell struct {
	asg  modem.SlotAssignment
	term *handTerm
	info []byte
}

type handSent struct {
	bits []byte
	cell modem.SlotAssignment
}

// aggToken marks a fabric packet that stands for an aggregate member's.
type aggToken struct{}

// capture holds what replay pushes through the child calls: per frame,
// the uplink slot waveforms as the payload received them and the
// downlink grid as the transmitter was handed it; and one wideband block.
type capture struct {
	frames []capturedFrame
	wide   dsp.Vec
}

type capturedFrame struct {
	waves []dsp.Vec
	metas []payload.RouteMeta
	grid  [][][]byte
}

func newHand(spec scenario.Spec, sync modem.SyncConfig, aggRate float64) (*hand, error) {
	cfg, err := spec.TrafficConfig()
	if err != nil {
		return nil, err
	}
	terms, _, err := spec.Populations()
	if err != nil {
		return nil, err
	}
	pcfg := payload.DefaultConfig()
	pcfg.Carriers = cfg.Frame.Carriers
	pl, err := payload.New(pcfg)
	if err != nil {
		return nil, err
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		return nil, err
	}
	if err := pl.SetCodec(spec.System.Codec); err != nil {
		return nil, err
	}
	pl.SetSyncConfig(sync)
	codec, err := pl.Codec()
	if err != nil {
		return nil, err
	}
	bf := pl.BurstFormat()
	h := &hand{
		tr:      &tracer{},
		cfg:     cfg,
		plan:    traffic.DefaultPlan(cfg.Frame.Carriers),
		pl:      pl,
		fab:     pl.Switch(),
		codec:   codec,
		sync:    sync,
		budget:  bf.PayloadBits(),
		slots:   modem.NewSlotScheduler(cfg.Frame),
		fc:      modem.NewFrameComposer(cfg.Frame, uplinkSPS),
		mod:     modem.NewBurstModulator(bf, rollOff, uplinkSPS, filterSpan),
		ch:      dsp.NewChannel(0),
		aggRate: aggRate,
	}
	h.k = traffic.InfoBitsFor(codec, h.budget)
	h.esN0 = cfg.EbN0dB + 10*math.Log10(2*codec.Rate())
	pl.SetBurstCodedBits(codec.EncodedLen(h.k))
	h.fab.Adopt(cfg.QueueDepth)
	if h.mod.WaveformLen() > cfg.Frame.SlotSymbols*uplinkSPS {
		return nil, errors.New("hand-driven frame: the burst does not fit the slot")
	}
	h.tx = payload.NewTransmitter(pl, h.plan)
	h.gdemux = frontend.NewDemux(h.plan, channelTaps)
	h.gdem = modem.NewBurstDemodulator(bf, rollOff, h.plan.Decim, filterSpan, modem.TimingOerderMeyr)
	h.terms = make([]handTerm, len(terms))
	for i, t := range terms {
		h.terms[i] = handTerm{term: t, rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))}
	}
	h.grid = make([][][]byte, cfg.Frame.Carriers)
	for c := range h.grid {
		h.grid[c] = make([][]byte, cfg.Frame.Slots)
	}
	h.emits = make([]func(switchfab.Packet) bool, len(h.grid))
	for b := range h.emits {
		h.emits[b] = h.emit(b)
	}
	h.info = make([]byte, h.slots.Capacity()*h.k)
	h.aggBits = make([]byte, h.k)
	return h, nil
}

// grant stands in for the engine's DAMA pass: every terminal releases
// its slots and requests its model's demand, first come first served.
func (h *hand) grant(f int) {
	h.cells = h.cells[:0]
	for i := range h.terms {
		t := &h.terms[i]
		h.slots.Release(t.term.ID)
	}
	for i := range h.terms {
		t := &h.terms[i]
		d := min(t.term.Model.Demand(f), h.slots.Capacity()-h.slots.Allocated())
		if d <= 0 {
			continue
		}
		asgs, err := h.slots.Request(t.term.ID, d)
		if err != nil {
			continue
		}
		for _, a := range asgs {
			off := len(h.cells) * h.k
			info := h.info[off : off+h.k : off+h.k]
			for j := range info {
				info[j] = byte(t.rng.Intn(2))
			}
			h.cells = append(h.cells, handCell{asg: a, term: t, info: info})
		}
	}
}

// emit is the scheduler's callback: it places one popped packet in the
// next downlink slot of the beam being filled.
func (h *hand) emit(beam int) func(switchfab.Packet) bool {
	return func(p switchfab.Packet) bool {
		if _, agg := p.Term.(aggToken); !agg {
			h.grid[beam][h.slot] = p.Bits
			h.sent = append(h.sent, handSent{bits: p.Bits, cell: modem.SlotAssignment{Carrier: beam, Slot: h.slot}})
		}
		h.slot++
		if h.tr.on {
			h.scheduled++ // the packets behind the traced schedule spans
		}
		return true
	}
}

// frame drives one frame: the same calls in the same order as the
// engine's synthesis, receive, schedule, transmit and verify stages.
func (h *hand) frame() error {
	f := h.f
	h.f++
	tr := h.tr
	h.grant(f)
	cells := h.cells

	if len(cells) > 0 {
		top := tr.begin("traffic.synth")
		h.fc.Reset()
		h.asgs, h.metas = h.asgs[:0], h.metas[:0]
		for i, c := range cells {
			h.asgs = append(h.asgs, c.asg)
			h.metas = append(h.metas, payload.RouteMeta{Beam: c.term.term.Beam, Class: c.term.term.Class,
				Term: c.term, Ingress: f, InfoBits: h.k})

			s := tr.begin("fec.encode")
			padded := fec.AppendEncode(h.codec, h.enc[:0], c.info)
			tr.end(s)
			if len(padded) > h.budget {
				padded = padded[:h.budget]
			}
			for len(padded) < h.budget {
				padded = append(padded, 0)
			}
			h.enc = padded

			s = tr.begin("modem.modulate")
			wave := h.mod.ModulateInto(h.fc.SlotWaveform(c.asg), padded)
			tr.end(s)

			ch, prof := h.ch, c.term.term.Channel
			ch.Reseed(h.cfg.Seed + int64(f)*100003 + int64(i))
			ch.EsN0dB, ch.SPS = h.esN0, uplinkSPS
			ch.PhaseOffset, ch.FreqOffset, ch.FreqDrift, ch.TimingOffset, ch.Gain = 0, 0, 0, 0, 1
			if prof != nil {
				if prof.EsN0dB != 0 {
					ch.EsN0dB = prof.EsN0dB
				}
				ch.FreqOffset = (prof.CFO + prof.Drift*float64(f)) / uplinkSPS
				ch.PhaseOffset, ch.TimingOffset = prof.Phase, prof.Timing
				if prof.Gain != 0 {
					ch.Gain = prof.Gain
				}
			}
			s = tr.begin("dsp.channel")
			ch.ApplyInPlace(wave)
			tr.end(s)
		}
		tr.end(top)
	}

	var cf *capturedFrame
	if h.capture != nil {
		h.capture.frames = append(h.capture.frames, capturedFrame{})
		cf = &h.capture.frames[len(h.capture.frames)-1]
		for _, a := range h.asgs[:len(cells)] {
			cf.waves = append(cf.waves, append(dsp.Vec(nil), h.fc.SlotWaveform(a)...))
		}
		cf.metas = append(cf.metas, h.metas[:len(cells)]...)
	}

	// The engine's receive stage is the payload call plus the routing of
	// the frame's aggregate packets.
	top := tr.begin("payload.receive")
	var receipts []payload.BurstReceipt
	if len(cells) > 0 {
		receipts = h.pl.ReceiveFrameAndRouteQoS(h.fc, h.asgs, h.metas)
	}
	for h.aggAcc += h.aggRate; h.aggAcc >= 1; h.aggAcc-- {
		h.fab.RoutePacket(h.aggBeam, switchfab.Packet{Bits: h.aggBits, Term: aggToken{}, Ingress: f})
		h.aggBeam = (h.aggBeam + 1) % h.cfg.Frame.Carriers
	}
	tr.end(top)
	for i, r := range receipts {
		h.bursts++
		if r.Err != nil || fec.CountBitErrors(cells[i].info, r.Bits[:h.k]) > 0 {
			h.failed++
		}
	}

	top = tr.begin("switchfab.schedule")
	h.sent = h.sent[:0]
	for b := range h.grid {
		for s := range h.grid[b] {
			h.grid[b][s] = nil
		}
		h.slot = 0
		h.fab.Schedule(h.cfg.Scheduler, b, h.cfg.Frame.Slots, h.emits[b])
	}
	tr.end(top)
	if cf != nil {
		cf.grid = make([][][]byte, len(h.grid))
		for b := range h.grid {
			cf.grid[b] = append([][]byte(nil), h.grid[b]...)
		}
	}

	top = tr.begin("payload.transmit")
	wide, err := h.tx.TransmitFrameGrid(h.cfg.Frame, h.grid)
	tr.end(top)
	if err != nil {
		return fmt.Errorf("hand-driven frame %d: %w", f, err)
	}
	if h.capture != nil && h.capture.wide == nil {
		h.capture.wide = append(dsp.Vec(nil), wide...)
	}

	top = tr.begin("traffic.verify")
	s := tr.begin("frontend.demux")
	split := h.gdemux.Process(wide)
	tr.end(s)
	slotLen := h.cfg.Frame.SlotSymbols * h.plan.Decim
	for _, sc := range h.sent {
		base := split[sc.cell.Carrier]
		start := sc.cell.Slot * slotLen
		end := min(start+slotLen+verifySlack, len(base))
		s = tr.begin("modem.demodulate")
		res := h.gdem.Demodulate(base[start:end])
		tr.end(s)
		if !res.Found {
			h.failed++
			continue
		}
		s = tr.begin("fec.decode")
		dec := h.codec.Decode(fec.HardLLR(modem.HardBits(res.Soft))[:h.codec.EncodedLen(len(sc.bits))])
		tr.end(s)
		if fec.CountBitErrors(sc.bits, dec[:len(sc.bits)]) > 0 {
			h.failed++
		}
	}
	for _, v := range split {
		dsp.PutVec(v)
	}
	tr.end(top)
	dsp.PutVec(wide)
	return nil
}

// timeUs runs fn and returns how long it took in microseconds.
func timeUs(fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t)) / 1e3
}

// replay pushes the captured bursts, soft bits and grids one at a time
// through the calls ReceiveFrameAndRouteQoS and TransmitFrameGrid make,
// and through the kernels under them, so the two calls' self times are
// differences of measurements. It fills the per-layer values that spans
// around the two calls cannot give.
func (h *hand) replay(cp *capture, v map[string]float64) {
	bf := h.pl.BurstFormat()
	frames := cp.frames
	coded := h.codec.EncodedLen(h.k)

	// Receive side: DEMOD, DECOD and SWITCH per burst, summed per frame.
	dem := modem.NewBurstDemodulatorSync(bf, rollOff, uplinkSPS, filterSpan, modem.TimingOerderMeyr, h.sync)
	mf := dsp.NewMatchedFilter(rollOff, uplinkSPS, filterSpan)
	om := modem.NewOerderMeyr(uplinkSPS)
	fab := switchfab.New(h.cfg.Frame.Carriers, h.cfg.QueueDepth)
	drain := func(switchfab.Packet) bool { return true }
	var demodUs, decodeUs, routeNs, mfUs, timingUs, freqUs, recvChildMs []float64
	var decodeAlloc uint64
	var pkts []switchfab.Packet
	var beams []int
	var ms runtime.MemStats
	for round := 0; round < replayRounds; round++ {
		for _, cf := range frames {
			frameUs := 0.0
			pkts, beams = pkts[:0], beams[:0]
			for i, wave := range cf.waves {
				var res modem.BurstResult
				us := timeUs(func() { res = dem.Demodulate(wave) })
				demodUs, frameUs = append(demodUs, us), frameUs+us
				if !res.Found || len(res.Soft) < coded {
					continue
				}
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				var bits []byte
				us = timeUs(func() { bits = h.codec.Decode(res.Soft[:coded]) })
				runtime.ReadMemStats(&ms)
				decodeAlloc += ms.TotalAlloc - before
				decodeUs, frameUs = append(decodeUs, us), frameUs+us
				m := cf.metas[i]
				pkts = append(pkts, switchfab.Packet{Bits: bits[:h.k], Class: m.Class, Term: m.Term, Ingress: m.Ingress})
				beams = append(beams, m.Beam)

				// The kernels under Demodulate, on the same burst.
				mf.Reset()
				filtered := dsp.GetVec(len(wave))
				mfUs = append(mfUs, timeUs(func() { mf.ProcessInto(filtered, wave) }))
				syms := dsp.GetVec(om.MaxSymbols(len(filtered)))
				timingUs = append(timingUs, timeUs(func() { syms, _ = om.RecoverInto(syms, filtered) }))
				if h.sync.FreqRecovery {
					est := syms[:min(len(syms), bf.TotalSymbols()+16)]
					freqUs = append(freqUs, timeUs(func() { modem.EstimateFrequencyQPSK(est) }))
				}
				dsp.PutVec(filtered)
				dsp.PutVec(syms)
			}
			// One clock read per frame, not per packet: a route costs about
			// what reading the clock does.
			if len(pkts) > 0 {
				us := timeUs(func() {
					for i, p := range pkts {
						fab.RoutePacket(beams[i], p)
					}
				})
				routeNs, frameUs = append(routeNs, us*1e3/float64(len(pkts))), frameUs+us
			}
			recvChildMs = append(recvChildMs, frameUs/1e3)
			for b := 0; b < h.cfg.Frame.Carriers; b++ {
				fab.Schedule(switchfab.FIFO{}, b, h.cfg.QueueDepth, drain)
			}
		}
	}
	v["modem.demodulate_us_per_burst"] = median(demodUs)
	v["modem.timing_us_per_burst"] = median(timingUs)
	v["modem.freq_est_us_per_burst"] = median(freqUs) // no calls without frequency recovery
	v["dsp.matched_filter_us_per_burst"] = median(mfUs)
	v["fec.decode_us_per_cw"] = median(decodeUs)
	v["fec.decode_alloc_kb_per_cw"] = 0
	if n := len(decodeUs); n > 0 {
		v["fec.decode_alloc_kb_per_cw"] = float64(decodeAlloc) / 1024 / float64(n)
	}
	v["switchfab.route_ns_per_pkt"] = median(routeNs)
	v["payload.receive_self_ms"] = v["payload.receive_ms"] - median(recvChildMs)

	// Transmit side: encode and modulate per burst, then MUX and DAC.
	txmod := modem.NewBurstModulator(bf, rollOff, h.plan.Decim, filterSpan)
	mux := frontend.NewMux(h.plan, channelTaps)
	dac := frontend.NewDAC(12, 4)
	slotLen := h.cfg.Frame.SlotSymbols * h.plan.Decim
	carrierLen := h.cfg.Frame.Slots*slotLen + payload.TxTailMargin
	bufs := make([]dsp.Vec, h.plan.Carriers)
	for c := range bufs {
		bufs[c] = dsp.NewVec(carrierLen)
	}
	var enc []byte
	var muxMs, dacMs, txChildMs []float64
	for round := 0; round < replayRounds; round++ {
		for _, cf := range frames {
			burstsUs := timeUs(func() {
				for c, buf := range bufs {
					for i := range buf {
						buf[i] = 0
					}
					for s, info := range cf.grid[c] {
						if info == nil {
							continue
						}
						enc = fec.AppendEncode(h.codec, enc[:0], info)
						for len(enc) < h.budget {
							enc = append(enc, 0)
						}
						txmod.ModulateInto(buf[s*slotLen:], enc)
					}
				}
			})
			wide := dsp.GetVec(mux.OutLen(carrierLen))
			muxUs := timeUs(func() { wide = mux.ProcessInto(wide, bufs) })
			dacUs := timeUs(func() { dac.ConvertInto(wide, wide) })
			dsp.PutVec(wide)
			muxMs, dacMs = append(muxMs, muxUs/1e3), append(dacMs, dacUs/1e3)
			txChildMs = append(txChildMs, (burstsUs+muxUs+dacUs)/1e3)
		}
	}
	v["frontend.mux_ms"] = median(muxMs)
	v["frontend.dac_ms"] = median(dacMs)
	v["payload.transmit_self_ms"] = v["payload.transmit_ms"] - median(txChildMs)

	// The kernels under MUX and DEMUX: one carrier's up-conversion, one
	// carrier's down-conversion and the mixer alone, over one frame.
	const kernelReps = 30
	cutoff := h.plan.Spacing / 2 * 0.9
	duc := dsp.NewDUC(h.plan.Freq(0), cutoff, channelTaps, h.plan.Decim)
	ddc := dsp.NewDDC(h.plan.Freq(0), cutoff, channelTaps, h.plan.Decim)
	nco := dsp.NewNCO(h.plan.Freq(0), 0)
	wide := cp.wide
	up, down, mixed := dsp.NewVec(duc.OutLen(carrierLen)), dsp.NewVec(len(wide)/h.plan.Decim+1), dsp.NewVec(len(wide))
	fftIn, fftOut := dsp.NewVec(1024), dsp.NewVec(1024)
	copy(fftIn, wide)
	var ducUs, ddcUs, ncoUs, fftUs []float64
	for i := 0; i < kernelReps; i++ {
		ducUs = append(ducUs, timeUs(func() { duc.ProcessInto(up, bufs[0]) })*1e3/float64(len(up)))
		ddcUs = append(ddcUs, timeUs(func() { ddc.ProcessInto(down[:ddc.OutLen(len(wide))], wide) })*1e3/float64(len(wide)))
		ncoUs = append(ncoUs, timeUs(func() { nco.MixInto(mixed, wide) })*1e3/float64(len(wide)))
		fftUs = append(fftUs, timeUs(func() { dsp.FFTForward(fftOut, fftIn) }))
	}
	v["dsp.duc_us_per_ksample"] = median(ducUs) // per 1000 wideband samples produced
	v["dsp.ddc_us_per_ksample"] = median(ddcUs) // per 1000 wideband samples consumed
	v["dsp.nco_mix_us_per_ksample"] = median(ncoUs)
	v["dsp.fft1024_us"] = median(fftUs)
}
