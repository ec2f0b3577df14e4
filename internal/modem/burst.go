package modem

import (
	"math"
	"math/cmplx"

	"repro/internal/dsp"
)

// BurstFormat describes the TDMA burst layout: a preamble of alternating
// symbols for timing acquisition, a unique word for burst synchronization
// and carrier-phase resolution, then the payload.
type BurstFormat struct {
	PreambleLen int        // symbols
	UniqueWord  []byte     // bits (even count for QPSK)
	PayloadLen  int        // payload symbols
	Mod         Modulation //
}

// DefaultBurstFormat returns the format used by the experiments: 32-symbol
// preamble, 16-symbol (32-bit) unique word, QPSK.
func DefaultBurstFormat(payloadSymbols int) BurstFormat {
	// CCSDS-flavoured 32-bit pattern with good aperiodic autocorrelation.
	uw := []byte{
		1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1,
		1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0,
	}
	return BurstFormat{PreambleLen: 32, UniqueWord: uw, PayloadLen: payloadSymbols, Mod: QPSK}
}

// UWSymbols returns the unique word as mapped symbols.
func (f BurstFormat) UWSymbols() dsp.Vec { return f.Mod.Map(f.UniqueWord) }

// TotalSymbols returns the full burst length in symbols.
func (f BurstFormat) TotalSymbols() int {
	return f.PreambleLen + len(f.UniqueWord)/f.Mod.BitsPerSymbol() + f.PayloadLen
}

// PayloadBits returns the number of payload bits the burst carries.
func (f BurstFormat) PayloadBits() int { return f.PayloadLen * f.Mod.BitsPerSymbol() }

// preambleSymbols alternates between two diagonal QPSK points, producing a
// strong half-symbol-rate line for timing recovery.
func (f BurstFormat) preambleSymbols() dsp.Vec {
	a := f.Mod.Map([]byte{0, 0})[0]
	b := f.Mod.Map([]byte{1, 1})[0]
	if f.Mod == BPSK {
		a, b = f.Mod.Map([]byte{0})[0], f.Mod.Map([]byte{1})[0]
	}
	out := dsp.NewVec(f.PreambleLen)
	for i := range out {
		if i%2 == 0 {
			out[i] = a
		} else {
			out[i] = b
		}
	}
	return out
}

// BurstModulator shapes burst symbols into a transmit waveform.
type BurstModulator struct {
	fmt    BurstFormat
	shaper *dsp.PulseShaper
	sps    int

	// template caches the preamble + unique-word symbols (identical for
	// every burst of this format); syms is the per-call symbol scratch.
	// Both make a recycled modulator's steady state allocation-free.
	template dsp.Vec
	syms     dsp.Vec
}

// NewBurstModulator builds the transmit side at sps samples/symbol with
// roll-off beta.
func NewBurstModulator(f BurstFormat, beta float64, sps, span int) *BurstModulator {
	template := f.preambleSymbols()
	template = append(template, f.UWSymbols()...)
	return &BurstModulator{
		fmt:      f,
		shaper:   dsp.NewPulseShaper(beta, sps, span),
		sps:      sps,
		template: template,
	}
}

// Modulate produces the burst waveform followed by enough flush samples to
// push the last symbol through the shaping filter. The modulator fully
// resets per call, so a recycled instance (e.g. from the transmitter's
// modulator pool) produces output bit-identical to a fresh one.
func (m *BurstModulator) Modulate(payload []byte) dsp.Vec {
	return m.ModulateInto(dsp.NewVec(m.WaveformLen()), payload)
}

// ModulateInto is the allocation-free variant of Modulate: it shapes the
// burst directly into dst (at least WaveformLen() samples, e.g. a frame
// composer's slot buffer) and returns the filled prefix. The symbol
// assembly reuses the cached preamble/unique-word template and an
// instance-owned scratch, so a warm modulator touches the heap only via
// dst.
func (m *BurstModulator) ModulateInto(dst dsp.Vec, payload []byte) dsp.Vec {
	if len(payload) != m.fmt.PayloadBits() {
		panic("modem: payload bit count does not match the burst format")
	}
	m.shaper.Reset()
	total := m.fmt.TotalSymbols() + m.flushSymbols()
	if cap(m.syms) < total {
		m.syms = dsp.NewVec(total)
	}
	syms := m.syms[:total]
	copy(syms, m.template)
	m.fmt.Mod.MapInto(syms[len(m.template):], payload)
	for i := m.fmt.TotalSymbols(); i < total; i++ {
		syms[i] = 0 // flush symbols push the last data symbol out
	}
	return m.shaper.ProcessInto(dst, syms)
}

// flushSymbols returns the idle symbols appended to push the last data
// symbol through the shaping filter.
func (m *BurstModulator) flushSymbols() int {
	return int(2*m.shaper.GroupDelay())/m.sps + 2
}

// WaveformLen returns the sample count Modulate produces for any payload:
// the shaped burst plus the filter flush tail. Frame builders use it to
// size slots and to emit correctly sized silence for idle frames.
func (m *BurstModulator) WaveformLen() int {
	return (m.fmt.TotalSymbols() + m.flushSymbols()) * m.sps
}

// TimingMode selects the timing recovery algorithm, the choice §2.3 ties
// to burst length.
type TimingMode int

// Timing recovery options.
const (
	// TimingGardner uses the closed-loop Gardner detector [5]
	// (2 samples/symbol, needs a longer acquisition run-in).
	TimingGardner TimingMode = iota
	// TimingOerderMeyr uses the feedforward square estimator [6]
	// (4+ samples/symbol, instant estimate, ideal for short bursts).
	TimingOerderMeyr
)

// String implements fmt.Stringer.
func (tm TimingMode) String() string {
	if tm == TimingGardner {
		return "gardner"
	}
	return "oerder-meyr"
}

// BurstResult is the demodulated output of one burst.
type BurstResult struct {
	Found      bool
	UWIndex    int       // symbol index where the unique word starts
	Phase      float64   // carrier phase estimate (radians)
	UWMetric   float64   // normalized unique-word correlation magnitude
	FreqEst    float64   // feedforward CFO estimate (cycles/symbol); 0 unless FreqRecovery ran
	Timing     float64   // fractional timing offset (samples); Oerder-Meyr only — Gardner tracks per symbol and reports 0
	Soft       []float64 // payload soft bits (positive ⇒ 0), valid until the demodulator's next Demodulate
	TimingUsed TimingMode
}

// DefaultUWThreshold is the normalized unique-word correlation magnitude
// required to declare a burst when SyncConfig leaves it unset.
const DefaultUWThreshold = 0.6

// SyncConfig selects the stages of the burst synchronization chain. The
// zero value reproduces the legacy chain exactly (UW phase only, default
// threshold), so demodulators built for clean channels stay bit-identical
// to earlier behaviour.
type SyncConfig struct {
	// UWThreshold overrides the unique-word detection threshold;
	// 0 selects DefaultUWThreshold.
	UWThreshold float64
	// FreqRecovery runs the delay-and-multiply feedforward CFO estimator
	// (EstimateFrequencyQPSK) over the recovered symbols and derotates
	// the stream before the unique-word search, extending acquisition
	// from the few-milliradian residual the UW phase absorbs to the
	// estimator's ±1/8 cycle/symbol range.
	FreqRecovery bool
	// PhaseTrack follows residual carrier phase across the payload with
	// blockwise feedforward fourth-power estimates unwrapped from the UW
	// phase, so long bursts stay locked under the CFO left by the
	// feedforward estimate. Slips need a whole block average off by more
	// than pi/4 — far rarer at the coded-regime Es/N0 than the
	// symbol-decision errors that slip a decision-directed loop.
	PhaseTrack bool
}

// BurstDemodulator recovers burst payloads: matched filter, timing
// recovery (Gardner or Oerder-Meyr), optional feedforward frequency
// recovery, unique-word search, data-aided phase correction and optional
// residual phase tracking, demapping.
type BurstDemodulator struct {
	fmt  BurstFormat
	mf   *dsp.MatchedFilter
	mode TimingMode
	sps  int
	sync SyncConfig

	// Cached unique-word symbols and their energy: the UW search runs
	// per candidate per burst and must not re-map the word each time.
	uw       dsp.Vec
	uwEnergy float64
	// om and the scratch buffers below are instance-owned; a demodulator
	// serves one burst at a time (pool contract), so reusing them across
	// Demodulate calls is safe and keeps the warm path allocation-free.
	om    *OerderMeyr
	syms  dsp.Vec   // timing-recovered symbols
	derot dsp.Vec   // phase-corrected payload symbols
	soft  []float64 // demapped payload soft bits, BurstResult.Soft
}

// NewBurstDemodulator builds the receive side with the legacy sync chain
// (zero SyncConfig). For TimingGardner sps must be 2; for TimingOerderMeyr
// sps must be >= 4.
func NewBurstDemodulator(f BurstFormat, beta float64, sps, span int, mode TimingMode) *BurstDemodulator {
	return NewBurstDemodulatorSync(f, beta, sps, span, mode, SyncConfig{})
}

// NewBurstDemodulatorSync builds the receive side with an explicit
// synchronization configuration.
func NewBurstDemodulatorSync(f BurstFormat, beta float64, sps, span int, mode TimingMode, sc SyncConfig) *BurstDemodulator {
	switch mode {
	case TimingGardner:
		if sps != 2 {
			panic("modem: Gardner timing requires 2 samples per symbol")
		}
	case TimingOerderMeyr:
		if sps < 4 {
			panic("modem: Oerder-Meyr timing requires >= 4 samples per symbol")
		}
	}
	if sc.UWThreshold == 0 {
		sc.UWThreshold = DefaultUWThreshold
	}
	d := &BurstDemodulator{
		fmt:   f,
		mf:    dsp.NewMatchedFilter(beta, sps, span),
		mode:  mode,
		sps:   sps,
		sync:  sc,
		uw:    f.UWSymbols(),
		derot: dsp.NewVec(f.PayloadLen),
		soft:  make([]float64, f.PayloadBits()),
	}
	d.uwEnergy = d.uw.Energy()
	if mode == TimingOerderMeyr {
		d.om = NewOerderMeyr(sps)
	}
	return d
}

// Demodulate processes a received waveform containing one burst. The
// demodulator is fully reset per call, so a recycled instance (e.g. from
// the payload's demodulator pool) produces output bit-identical to a
// freshly constructed one. The soft bits are the instance's own buffer:
// a caller that keeps them past the next call copies them.
func (d *BurstDemodulator) Demodulate(rx dsp.Vec) BurstResult {
	d.mf.Reset()
	filtered := d.mf.ProcessInto(dsp.GetVec(len(rx)), rx)

	var syms dsp.Vec
	var tau float64
	switch d.mode {
	case TimingGardner:
		syms = gardnerRecover(filtered, 0.05, 0.0005)
	case TimingOerderMeyr:
		if n := d.om.MaxSymbols(len(filtered)); cap(d.syms) < n {
			d.syms = dsp.NewVec(n)
		}
		syms, tau = d.om.RecoverInto(d.syms[:cap(d.syms)], filtered)
	}
	dsp.PutVec(filtered)
	return d.acquire(syms, tau)
}

// acquire runs the chain after timing recovery on the symbol-rate
// strobes: frequency recovery, unique-word search, phase correction and
// demapping.
func (d *BurstDemodulator) acquire(syms dsp.Vec, tau float64) BurstResult {
	res := BurstResult{TimingUsed: d.mode, Timing: tau}
	uw := d.uw
	if len(syms) < len(uw)+d.fmt.PayloadLen {
		return res
	}
	if d.sync.FreqRecovery {
		// Estimate over the burst span only: a slot is longer than the
		// burst, and the noise-only tail would dilute the fourth-power
		// correlation sums for no benefit (the burst sits at the slot
		// start, shifted by at most the shaping-filter group delays).
		est := syms
		if n := d.fmt.TotalSymbols() + 16; len(est) > n {
			est = est[:n]
		}
		res.FreqEst = EstimateFrequencyQPSK(est)
	}
	var bestIdx int
	var bestMag float64
	var bestCorr complex128
	var pooled dsp.Vec // winning candidate buffer, released before return (nil is a no-op)
	if d.sync.FreqRecovery {
		// The fourth power is blind to quarter-cycle wraps: a burst at
		// the range edge (or beyond ±1/8) estimates 1/4 cycle/symbol
		// off, and because a 1/4-cycle residual rotates QPSK onto QPSK
		// the wrapped stream still shows a plausible unique word (the
		// UW's rotated self-correlation sits near the threshold). Only
		// the data-aided search can disambiguate, so every wrap
		// candidate is scored and the best unique-word metric wins —
		// a correct estimate beats its wrapped twins by a wide margin.
		base, raw := res.FreqEst, syms
		bestIdx = -1
		best, scratch := dsp.GetVec(len(raw)), dsp.GetVec(len(raw))
		for i, df := range [...]float64{0, -1. / 4, 1. / 4} {
			dst := scratch
			if i == 0 {
				dst = best
			}
			correctFrequencyInto(dst, raw, base+df)
			idx, mag, corr := d.searchUW(dst)
			if mag > bestMag {
				bestIdx, bestMag, bestCorr = idx, mag, corr
				res.FreqEst = base + df
				if i != 0 {
					best, scratch = scratch, best
				}
			}
		}
		dsp.PutVec(scratch)
		pooled, syms = best, best
	} else {
		bestIdx, bestMag, bestCorr = d.searchUW(syms)
	}
	res.UWMetric = bestMag
	if bestIdx < 0 || bestMag < d.sync.UWThreshold {
		dsp.PutVec(pooled)
		return res
	}
	res.Found = true
	res.UWIndex = bestIdx
	// Data-aided phase from the UW correlation.
	res.Phase = cmplx.Phase(bestCorr)

	payloadStart := bestIdx + len(uw)
	payload := syms[payloadStart : payloadStart+d.fmt.PayloadLen]
	if d.sync.PhaseTrack {
		// The UW phase is exact only at the unique word; under residual
		// CFO the payload keeps rotating, so blockwise feedforward
		// estimates anchored at the UW phase follow it across the
		// payload.
		TrackPhaseQPSKInto(d.derot, payload, res.Phase)
	} else {
		DerotateInto(d.derot, payload, res.Phase)
	}
	res.Soft = d.fmt.Mod.DemapInto(d.soft, d.derot, 1)
	dsp.PutVec(pooled)
	return res
}

// searchUW runs the non-coherent unique-word search — peak of the
// normalized |correlation| over every offset that leaves room for the
// payload — returning the winning offset, its metric, and the raw
// correlation (whose phase is the data-aided carrier estimate).
func (d *BurstDemodulator) searchUW(syms dsp.Vec) (int, float64, complex128) {
	uw := d.uw
	bestIdx, bestMag := -1, 0.0
	var bestCorr complex128
	for off := 0; off+len(uw)+d.fmt.PayloadLen <= len(syms); off++ {
		var acc complex128
		var energy float64
		for i := range uw {
			s := syms[off+i]
			acc += s * cmplx.Conj(uw[i])
			energy += real(s)*real(s) + imag(s)*imag(s)
		}
		if energy == 0 {
			continue
		}
		mag := cmplx.Abs(acc) / math.Sqrt(energy*d.uwEnergy)
		if mag > bestMag {
			bestMag, bestIdx, bestCorr = mag, off, acc
		}
	}
	return bestIdx, bestMag, bestCorr
}
