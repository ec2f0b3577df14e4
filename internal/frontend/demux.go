package frontend

import (
	"repro/internal/dsp"
	"repro/internal/pipeline"
)

// Demux is the demultiplexer of Fig 2: it splits a wideband multi-carrier
// block into per-carrier baseband streams using a bank of digital
// down-converters, one per MF-TDMA carrier. The transmit-side dual, Mux,
// stacks per-carrier streams onto a wideband signal.

// CarrierPlan describes the frequency plan of the multi-carrier signal:
// n carriers spaced evenly, centred on DC, at normalized spacing
// (cycles/sample at the wideband rate).
type CarrierPlan struct {
	Carriers int
	Spacing  float64
	Decim    int // per-carrier decimation from wideband to carrier rate
}

// Freq returns the normalized centre frequency of carrier c.
func (p CarrierPlan) Freq(c int) float64 {
	return (float64(c) - float64(p.Carriers-1)/2) * p.Spacing
}

// Demux is the DDC bank.
type Demux struct {
	ddcs []*dsp.DDC
	out  []dsp.Vec // Process's result, reused across calls

	// downconvert is the per-carrier worker body, built once like
	// Mux.upconvert; cur is its per-call argument.
	downconvert func(int)
	cur         dsp.Vec
}

// NewDemux builds the demultiplexer; ntaps sizes each channel filter.
func NewDemux(plan CarrierPlan, ntaps int) *Demux {
	if plan.Carriers < 1 {
		panic("frontend: carrier plan needs at least one carrier")
	}
	d := &Demux{out: make([]dsp.Vec, plan.Carriers)}
	cutoff := plan.Spacing / 2 * 0.9 // channel filter inside the spacing
	for c := 0; c < plan.Carriers; c++ {
		d.ddcs = append(d.ddcs, dsp.NewDDC(plan.Freq(c), cutoff, ntaps, plan.Decim))
	}
	d.downconvert = func(c int) {
		ddc := d.ddcs[c]
		d.out[c] = ddc.ProcessInto(dsp.GetVec(ddc.OutLen(len(d.cur))), d.cur)
	}
	return d
}

// Process splits a wideband block into per-carrier baseband streams.
// The DDC bank fans out across the pipeline worker pool — one chain per
// carrier, as in the FPGA DEMUX — and each carrier writes only its own
// DDC state and output slot, so the result is bit-identical to a
// sequential loop. Output blocks come from the dsp block pool (callers
// done with one may dsp.PutVec it); the slice holding them is the
// Demux's own, overwritten by the next call.
func (d *Demux) Process(wideband dsp.Vec) []dsp.Vec {
	d.cur = wideband
	pipeline.ForEach(len(d.ddcs), d.downconvert)
	d.cur = nil
	return d.out
}

// ProcessWindowInto down-converts only carrier c's samples lo..hi-1 (at
// the carrier rate) of a wideband block taken as the start of a stream,
// into dst (at least hi-lo long): the slice [lo:hi] of what a fresh
// Demux's Process returns, for the cost of the window plus one filter
// length. It touches no stream state, so windows may be converted
// concurrently: a receiver that knows which slots carry bursts pays for
// those, not for the idle grid around them.
func (d *Demux) ProcessWindowInto(dst, wideband dsp.Vec, c, lo, hi int) dsp.Vec {
	return d.ddcs[c].ProcessWindowInto(dst, wideband, lo, hi)
}

// Mux is the transmit-side carrier stacker (DUC bank).
type Mux struct {
	plan CarrierPlan
	ducs []*dsp.DUC
	busy []int     // carriers with something to up-convert this call
	tmp  []dsp.Vec // scratch: up-converted blocks of busy[1:] (pooled)

	// upconvert is the per-busy-carrier worker body, built once so the
	// steady state does not heap-allocate a closure per frame; cur* are
	// its per-call arguments.
	upconvert   func(int)
	curDst      dsp.Vec
	curCarriers []dsp.Vec
}

// NewMux builds the multiplexer with the same plan as the Demux.
func NewMux(plan CarrierPlan, ntaps int) *Mux {
	if plan.Carriers < 1 {
		panic("frontend: carrier plan needs at least one carrier")
	}
	m := &Mux{plan: plan, tmp: make([]dsp.Vec, plan.Carriers), busy: make([]int, 0, plan.Carriers)}
	cutoff := plan.Spacing / 2 * 0.9
	for c := 0; c < plan.Carriers; c++ {
		m.ducs = append(m.ducs, dsp.NewDUC(plan.Freq(c), cutoff, ntaps, plan.Decim))
	}
	m.upconvert = func(i int) {
		c, out := m.busy[i], m.curDst // the first busy carrier lands in dst itself
		if i > 0 {
			out = dsp.GetVec(len(out))
			m.tmp[i] = out
		}
		m.ducs[c].ProcessInto(out, m.curCarriers[c])
	}
	return m
}

// OutLen returns the wideband sample count produced for per-carrier
// blocks of n samples.
func (m *Mux) OutLen(n int) int { return n * m.plan.Decim }

// ProcessInto stacks per-carrier baseband streams (all the same length)
// onto one wideband block. Work follows occupancy: a carrier whose block
// and DUC filter history are all zero would contribute exact zeros, so it
// only advances its oscillator (DUC.SkipIdle) and is left out of the sum.
// The busy carriers' DUCs fan out across the pipeline worker pool (inline
// when at most one is busy) — one chain per carrier, as in the FPGA MUX,
// each owning only its DUC state and its output block — and are then
// summed into dst (at least OutLen(n) long) strictly in carrier order, so
// the wideband block is bit-identical to a sequential loop. Steady state
// performs no allocations once the block pool is warm.
func (m *Mux) ProcessInto(dst dsp.Vec, carriers []dsp.Vec) dsp.Vec {
	if len(carriers) != len(m.ducs) {
		panic("frontend: carrier count mismatch")
	}
	n := len(carriers[0])
	for _, c := range carriers {
		if len(c) != n {
			panic("frontend: carrier block length mismatch")
		}
	}
	m.busy = m.busy[:0]
	for c, duc := range m.ducs {
		if !duc.SkipIdle(carriers[c]) {
			m.busy = append(m.busy, c)
		}
	}
	dst = dst[:m.OutLen(n)]
	if len(m.busy) == 0 {
		clear(dst)
		return dst
	}
	m.curDst, m.curCarriers = dst, carriers
	pipeline.ForEach(len(m.busy), m.upconvert)
	m.curDst, m.curCarriers = nil, nil
	for i := 1; i < len(m.busy); i++ {
		dst.Add(m.tmp[i])
		dsp.PutVec(m.tmp[i])
		m.tmp[i] = nil
	}
	return dst
}
