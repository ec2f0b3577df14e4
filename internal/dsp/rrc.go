package dsp

import (
	"math"
	"slices"
	"sync"
)

// Filter-design cache: pooled demodulators and modulators are rebuilt
// whenever a scenario event reconfigures the sync chain, and every
// rebuild used to redesign identical RRC/lowpass taps from scratch.
// Designs are pure functions of their parameters, so they are computed
// once per parameter set and served as copies (callers own and may
// mutate what they get back).
type rrcKey struct {
	beta      float64
	sps, span int
}

type lowpassKey struct {
	cutoff float64
	ntaps  int
}

var (
	rrcTapCache     sync.Map // rrcKey -> []float64 (immutable master)
	lowpassTapCache sync.Map // lowpassKey -> []float64 (immutable master)
)

// RRCTaps designs a root-raised-cosine pulse-shaping filter.
//
//	beta  — roll-off factor in (0, 1]
//	sps   — samples per symbol
//	span  — filter length in symbols (taps = span*sps + 1)
//
// The taps are normalized to unit energy so that a matched pair
// (transmit RRC, receive RRC) yields a raised-cosine Nyquist pulse with
// unity peak at the optimum sampling instant. Designs are cached by
// (beta, sps, span); the returned slice is the caller's copy.
func RRCTaps(beta float64, sps, span int) []float64 {
	key := rrcKey{beta, sps, span}
	if m, ok := rrcTapCache.Load(key); ok {
		return slices.Clone(m.([]float64))
	}
	taps := designRRCTaps(beta, sps, span)
	master, _ := rrcTapCache.LoadOrStore(key, taps)
	return slices.Clone(master.([]float64))
}

// designRRCTaps computes an RRC design (uncached).
func designRRCTaps(beta float64, sps, span int) []float64 {
	if beta <= 0 || beta > 1 {
		panic("dsp: RRCTaps beta must be in (0, 1]")
	}
	if sps < 2 {
		panic("dsp: RRCTaps needs sps >= 2")
	}
	if span < 2 {
		panic("dsp: RRCTaps needs span >= 2")
	}
	n := span*sps + 1
	taps := make([]float64, n)
	mid := (n - 1) / 2
	for i := range taps {
		t := float64(i-mid) / float64(sps) // time in symbol periods
		taps[i] = rrcPoint(t, beta)
	}
	// Unit energy normalization.
	var e float64
	for _, v := range taps {
		e += v * v
	}
	e = math.Sqrt(e)
	for i := range taps {
		taps[i] /= e
	}
	return taps
}

// rrcPoint evaluates the (unnormalized) RRC impulse response at t symbol
// periods, handling the removable singularities at t=0 and t=±1/(4 beta).
func rrcPoint(t, beta float64) float64 {
	switch {
	case t == 0:
		return 1 - beta + 4*beta/math.Pi
	case math.Abs(math.Abs(t)-1/(4*beta)) < 1e-12:
		a := (1 + 2/math.Pi) * math.Sin(math.Pi/(4*beta))
		b := (1 - 2/math.Pi) * math.Cos(math.Pi/(4*beta))
		return beta / math.Sqrt2 * (a + b)
	default:
		num := math.Sin(math.Pi*t*(1-beta)) + 4*beta*t*math.Cos(math.Pi*t*(1+beta))
		den := math.Pi * t * (1 - (4*beta*t)*(4*beta*t))
		return num / den
	}
}

// PulseShaper upsamples a symbol stream by sps and filters it with an RRC
// pulse, producing a transmit baseband waveform. Streaming-safe. It is
// the polyphase interpolator the DUC uses, over the RRC taps.
type PulseShaper struct {
	ip    *interpolator
	delay float64
}

// NewPulseShaper builds a transmit shaper with the given RRC parameters.
func NewPulseShaper(beta float64, sps, span int) *PulseShaper {
	taps := RRCTaps(beta, sps, span)
	return &PulseShaper{ip: newInterpolator(taps, sps, 1), delay: float64(len(taps)-1) / 2}
}

// GroupDelay returns the shaping filter delay in samples.
func (p *PulseShaper) GroupDelay() float64 { return p.delay }

// ProcessInto shapes a block of symbols: it writes the sps*len(symbols)
// samples into dst (at least that long, not aliasing symbols) and
// returns the filled prefix. Because the taps have unit energy, the
// shaper + matched filter cascade has unity gain at the decision instant.
func (p *PulseShaper) ProcessInto(dst, symbols Vec) Vec {
	return p.ip.processInto(dst, symbols)
}

// Reset clears the shaper state.
func (p *PulseShaper) Reset() { p.ip.reset() }

// MatchedFilter is the receive-side RRC filter paired with PulseShaper.
// It is the polyphase interpolator by 1: one branch, the filter itself.
type MatchedFilter struct{ ip *interpolator }

// NewMatchedFilter builds the receive matched filter.
func NewMatchedFilter(beta float64, sps, span int) *MatchedFilter {
	return &MatchedFilter{ip: newInterpolator(RRCTaps(beta, sps, span), 1, 1)}
}

// ProcessInto filters a received block at sample rate: it writes the
// len(in) filtered samples into dst (at least that long, not aliasing
// in) and returns the filled prefix.
func (m *MatchedFilter) ProcessInto(dst, in Vec) Vec { return m.ip.processInto(dst, in) }

// Reset clears the filter state.
func (m *MatchedFilter) Reset() { m.ip.reset() }
