package traffic

import (
	"math"
	"sync"

	"repro/internal/dsp"
	"repro/internal/modem"
	"repro/internal/pipeline"
)

// uplinkSPS is the terminals' oversampling, the payload's TDMA rate.
const uplinkSPS = 4

// uplinkChannels holds the per-burst uplink channels of every engine in
// the process: each use reseeds one and sets all seven of its fields, so
// a channel another engine used gives the same bits as a new one.
var uplinkChannels = sync.Pool{New: func() any { return dsp.NewChannel(0) }}

// uplinkSynth is the terminal-side transmitter bank: it turns a frame's
// granted cells into the composed MF-TDMA uplink frame the payload
// receives. The modulator pool and the per-cell encode buffers make the
// per-cell fan-out allocation-free; the composer is reused frame after
// frame, which is safe because ingest (control thread) is its only user.
type uplinkSynth struct {
	frame  modem.FrameConfig
	ebn0dB float64 // Config.EbN0dB
	seed   int64   // Config.Seed, the root of the per-burst noise seeds
	fc     *modem.FrameComposer
	mods   sync.Pool // burst modulators
	encs   [][]byte  // cell i's encode scratch, padded to the burst budget

	// cell is synthesize's worker body (synthesizeCell), built once so
	// that a call allocates no closure; pf and plan are its arguments.
	cell func(int)
	pf   framePrep
	plan *ingestPlan
}

func newUplinkSynth(cfg Config, bf modem.BurstFormat) *uplinkSynth {
	u := &uplinkSynth{frame: cfg.Frame, ebn0dB: cfg.EbN0dB, seed: cfg.Seed}
	u.mods.New = func() any { return modem.NewBurstModulator(bf, 0.35, uplinkSPS, 10) }
	u.cell = u.synthesizeCell
	return u
}

// synthesize modulates the frame's granted cells into the frame
// composer, one task per cell: encode, pad to the burst budget, modulate
// straight into the cell's slot, apply the terminal's channel. The
// returned composer is valid until the next call.
func (u *uplinkSynth) synthesize(pf *framePrep, plan *ingestPlan) *modem.FrameComposer {
	if u.fc == nil {
		u.fc = modem.NewFrameComposer(u.frame, uplinkSPS)
	} else {
		u.fc.Reset()
	}
	u.encs = append(u.encs, make([][]byte, max(len(plan.cells)-len(u.encs), 0))...)
	u.pf, u.plan = *pf, plan
	pipeline.ForEach(len(plan.cells), u.cell)
	u.pf.codec, u.plan = nil, nil
	return u.fc
}

// synthesizeCell encodes, modulates and impairs cell i of the frame
// under synthesize.
func (u *uplinkSynth) synthesizeCell(i int) {
	f, codec, budget, fc := u.pf.f, u.pf.codec, u.pf.budget, u.fc
	c, asg := u.plan.cells[i], u.plan.asgs[i]
	// A codec whose codeword overshoots the budget is truncated to it.
	padded := codec.AppendEncode(u.encs[i][:0], c.info)
	if len(padded) > budget {
		padded = padded[:budget]
	}
	for len(padded) < budget {
		padded = append(padded, 0)
	}
	// Modulate straight into the frame composer's slot: slots are
	// disjoint per assignment, so the concurrent workers never touch
	// the same samples, and Reset has already zeroed the tail beyond
	// the burst waveform.
	mod := u.mods.Get().(*modem.BurstModulator)
	var wave dsp.Vec
	slotDirect := mod.WaveformLen() <= u.frame.SlotSymbols*uplinkSPS
	if slotDirect {
		wave = mod.ModulateInto(fc.SlotWaveform(asg), padded)
	} else {
		wave = mod.Modulate(padded)
	}
	u.mods.Put(mod)
	u.encs[i] = padded
	prof := c.term.term.Channel
	if u.ebn0dB > 0 || prof != nil {
		cellEsN0 := 300.0 // effectively noiseless
		if prof != nil && prof.EsN0dB != 0 {
			cellEsN0 = prof.EsN0dB
		} else if u.ebn0dB > 0 {
			cellEsN0 = u.ebn0dB + 10*math.Log10(2*codec.Rate())
		}
		ch := uplinkChannels.Get().(*dsp.Channel)
		ch.Reseed(u.seed + int64(f)*100003 + int64(i))
		ch.EsN0dB, ch.SPS, ch.Gain = cellEsN0, uplinkSPS, 1
		ch.PhaseOffset, ch.FreqOffset, ch.FreqDrift, ch.TimingOffset = 0, 0, 0, 0
		if prof != nil {
			// Frequency figures are per symbol and the channel works
			// per sample, so CFO/Drift divide by the oversampling;
			// Timing is already a sample offset and passes through.
			// Drift ramps from the frame the profile was installed.
			ch.FreqOffset = (prof.CFO + prof.Drift*float64(f-c.term.profSince)) / uplinkSPS
			ch.PhaseOffset, ch.TimingOffset = prof.Phase, prof.Timing
			if prof.Gain != 0 {
				ch.Gain = prof.Gain
			}
		}
		ch.ApplyInPlace(wave)
		uplinkChannels.Put(ch)
	}
	if !slotDirect {
		fc.PlaceBurst(asg, wave)
	}
}
