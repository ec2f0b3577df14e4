package frontend

import (
	"slices"

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
	plan   CarrierPlan
	ducs   []*dsp.DUC
	whole  [][]dsp.Span // ProcessInto's runs: every carrier's whole block
	covers [][]dsp.Span // per carrier, the tiles its DUC computes this call
	spans  []dsp.Span   // their union, at the wideband rate
	busy   []int        // carriers with a tile to compute this call
	tmp    []dsp.Vec    // scratch: up-converted blocks of busy[1:] (pooled)

	// upconvert is the per-busy-carrier worker body, built once so the
	// steady state does not heap-allocate a closure per frame; cur* are
	// its per-call arguments.
	upconvert   func(int)
	curDst      dsp.Vec
	curCarriers []dsp.Vec
	curRuns     [][]dsp.Span
}

// NewMux builds the multiplexer with the same plan as the Demux.
func NewMux(plan CarrierPlan, ntaps int) *Mux {
	if plan.Carriers < 1 {
		panic("frontend: carrier plan needs at least one carrier")
	}
	m := &Mux{plan: plan, tmp: make([]dsp.Vec, plan.Carriers), busy: make([]int, 0, plan.Carriers),
		whole: make([][]dsp.Span, plan.Carriers), covers: make([][]dsp.Span, plan.Carriers)}
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
		m.ducs[c].ProcessRunsInto(out, m.curCarriers[c], m.curRuns[c])
	}
	return m
}

// OutLen returns the wideband sample count produced for per-carrier
// blocks of n samples.
func (m *Mux) OutLen(n int) int { return n * m.plan.Decim }

// ProcessInto stacks per-carrier baseband streams (all the same length)
// onto one wideband block: ProcessRunsInto with every carrier's whole
// block as its run.
func (m *Mux) ProcessInto(dst dsp.Vec, carriers []dsp.Vec) dsp.Vec {
	for c := range m.whole {
		m.whole[c] = append(m.whole[c][:0], dsp.Span{Hi: len(carriers[0])})
	}
	dst, _ = m.ProcessRunsInto(dst, carriers, m.whole)
	return dst
}

// ProcessRunsInto stacks per-carrier baseband streams (all the same
// length) onto one wideband block in dst (at least OutLen(n) long) when
// carrier c is zero outside runs[c] (sorted, disjoint). Work follows that
// plan: each DUC computes only its Cover and moves its oscillator over
// the rest. The busy DUCs fan out across the pipeline worker pool (inline
// when at most one is busy) — one chain per carrier, as in the FPGA MUX —
// each into its own block: the first into dst, cleared where it computes
// nothing, the others then added to dst over their own tiles strictly in
// carrier order, so the block is bit-identical to a sequential sum. It
// also returns the wideband spans (sorted; the Mux's own until the next
// call) outside of which the block is zero. Steady state performs no
// allocations once the block pool is warm.
func (m *Mux) ProcessRunsInto(dst dsp.Vec, carriers []dsp.Vec, runs [][]dsp.Span) (dsp.Vec, []dsp.Span) {
	if len(carriers) != len(m.ducs) || len(runs) != len(m.ducs) {
		panic("frontend: carrier count mismatch")
	}
	n, l := len(carriers[0]), m.plan.Decim
	for _, c := range carriers {
		if len(c) != n {
			panic("frontend: carrier block length mismatch")
		}
	}
	dst = dst[:m.OutLen(n)]
	m.busy, m.spans = m.busy[:0], m.spans[:0]
	for c, duc := range m.ducs {
		if m.covers[c] = duc.Cover(m.covers[c][:0], runs[c], n); len(m.covers[c]) > 0 {
			m.busy, m.spans = append(m.busy, c), append(m.spans, m.covers[c]...)
		} else {
			duc.ProcessRunsInto(dst, carriers[c], nil) // moves the oscillator only
		}
	}
	at := 0
	if len(m.busy) > 0 {
		for _, s := range m.covers[m.busy[0]] {
			clear(dst[at*l : s.Lo*l])
			at = s.Hi
		}
	}
	clear(dst[at*l:])
	m.curDst, m.curCarriers, m.curRuns = dst, carriers, runs
	pipeline.ForEach(len(m.busy), m.upconvert)
	m.curDst, m.curCarriers, m.curRuns = nil, nil, nil
	for i := 1; i < len(m.busy); i++ {
		for _, s := range m.covers[m.busy[i]] {
			dst[s.Lo*l : s.Hi*l].Add(m.tmp[i][s.Lo*l : s.Hi*l])
		}
		dsp.PutVec(m.tmp[i])
		m.tmp[i] = nil
	}
	slices.SortFunc(m.spans, func(a, b dsp.Span) int { return a.Lo - b.Lo })
	merged := m.spans[:0]
	for _, s := range m.spans {
		if s.Lo, s.Hi = s.Lo*l, s.Hi*l; len(merged) > 0 && s.Lo <= merged[len(merged)-1].Hi {
			merged[len(merged)-1].Hi = max(merged[len(merged)-1].Hi, s.Hi)
		} else {
			merged = append(merged, s)
		}
	}
	m.spans = merged
	return dst, merged
}
