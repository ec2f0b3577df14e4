package frontend

import (
	"slices"

	"repro/internal/dsp"
	"repro/internal/pipeline"
)

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

// Demux is the demultiplexer of Fig 2: a bank of digital down-converters,
// one per MF-TDMA carrier, that splits a wideband block into per-carrier
// baseband streams.
type Demux struct {
	ddcs []*dsp.DDC
	out  []dsp.Vec // Process's result, reused across calls

	// downconvert is Process's worker body, built once like Mux.sum; cur
	// is its per-call argument.
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

// Process splits a wideband block into per-carrier baseband streams,
// one carrier per task as in the FPGA DEMUX, bit-identical to a
// sequential loop. Output blocks come from the dsp block pool (callers
// may dsp.PutVec them); the slice holding them is the Demux's own,
// overwritten by the next call.
func (d *Demux) Process(wideband dsp.Vec) []dsp.Vec {
	d.cur = wideband
	pipeline.ForEach(len(d.ddcs), d.downconvert)
	d.cur = nil
	return d.out
}

// ProcessWindowInto down-converts only carrier c's samples lo..hi-1 (at
// the carrier rate) of a wideband block taken as the start of a stream,
// into dst (at least hi-lo long): the slice [lo:hi] of what a fresh
// Demux's Process returns, bit for bit, for the cost of the window plus
// one filter length. It touches no stream state, so windows may be
// converted concurrently.
func (d *Demux) ProcessWindowInto(dst, wideband dsp.Vec, c, lo, hi int) dsp.Vec {
	return d.ddcs[c].ProcessWindowInto(dst, wideband, lo, hi)
}

// Mux is the transmit-side carrier stacker (DUC bank).
type Mux struct {
	plan   CarrierPlan
	ducs   []*dsp.DUC
	whole  [][]dsp.Span // ProcessInto's runs: every carrier's whole block
	covers [][]dsp.Span // per carrier, the tiles its DUC computes this call
	busy   []int        // carriers with a tile to compute this call
	tiles  []int        // the first input of each tile some busy carrier covers

	// sum is the per-tile worker body, built once so that a call
	// allocates no closure; cur* are its per-call arguments.
	sum         func(int)
	curDst      dsp.Vec
	curCarriers []dsp.Vec
	curDAC      *DAC
}

// NewMux builds the multiplexer with the same plan as the Demux.
func NewMux(plan CarrierPlan, ntaps int) *Mux {
	if plan.Carriers < 1 {
		panic("frontend: carrier plan needs at least one carrier")
	}
	m := &Mux{plan: plan, busy: make([]int, 0, plan.Carriers),
		whole: make([][]dsp.Span, plan.Carriers), covers: make([][]dsp.Span, plan.Carriers)}
	cutoff := plan.Spacing / 2 * 0.9
	for c := 0; c < plan.Carriers; c++ {
		m.ducs = append(m.ducs, dsp.NewDUC(plan.Freq(c), cutoff, ntaps, plan.Decim))
	}
	m.sum = m.sumTile
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
	return m.ProcessRunsInto(dst, carriers, m.whole)
}

// ProcessRunsInto stacks per-carrier baseband streams (all the same
// length) onto one wideband block in dst (at least OutLen(n) long) when
// carrier c is zero outside runs[c] (sorted, disjoint), and converts the
// block with dac if one is given. Each DUC computes only its Cover. The
// covered tiles fan out across the worker pool: a task sums its tile over
// the carriers in order (the first busy carrier's output, or zero where
// it computes nothing, plus each later one's), then converts it, so the
// block is the sequential carrier-by-carrier sum's bit for bit. A warm
// call allocates nothing.
func (m *Mux) ProcessRunsInto(dst dsp.Vec, carriers []dsp.Vec, runs [][]dsp.Span, dac ...*DAC) dsp.Vec {
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
	m.busy = m.busy[:0]
	for c, duc := range m.ducs {
		if m.covers[c] = duc.Cover(m.covers[c][:0], runs[c], n); len(m.covers[c]) > 0 {
			m.busy = append(m.busy, c)
		}
	}
	m.tiles = m.tiles[:0]
	for off := 0; off < n; off += dsp.DUCTile {
		if slices.ContainsFunc(m.busy, func(c int) bool { return covers(m.covers[c], off) }) {
			m.tiles = append(m.tiles, off)
		} else {
			clear(dst[off*l : min(off+dsp.DUCTile, n)*l])
		}
	}
	m.curDst, m.curCarriers, m.curDAC = dst, carriers, nil
	if len(dac) > 0 {
		m.curDAC = dac[0]
	}
	pipeline.ForEach(len(m.tiles), m.sum)
	m.curDst, m.curCarriers, m.curDAC = nil, nil, nil
	for c, duc := range m.ducs {
		duc.EndBlock(carriers[c], runs[c])
	}
	return dst
}

// sumTile computes the wideband tile that starts at input m.tiles[i].
func (m *Mux) sumTile(i int) {
	off, l := m.tiles[i], m.plan.Decim
	out := m.curDst[off*l : min(off+dsp.DUCTile, len(m.curCarriers[0]))*l]
	var tmp dsp.Vec // L1 scratch for every carrier after the first
	for k, c := range m.busy {
		switch {
		case !covers(m.covers[c], off):
			if k == 0 {
				clear(out)
			}
		case k == 0:
			m.ducs[c].TileInto(out, m.curCarriers[c], off)
		default:
			if tmp == nil {
				tmp = dsp.GetVec(len(out))
			}
			out.Add(m.ducs[c].TileInto(tmp, m.curCarriers[c], off))
		}
	}
	dsp.PutVec(tmp)
	if m.curDAC != nil { // the block is zero elsewhere, and a zero is its own code
		m.curDAC.ConvertInto(out, out)
	}
}

// covers reports whether input off lies in one of spans (sorted).
func covers(spans []dsp.Span, off int) bool {
	for _, s := range spans {
		if off < s.Hi {
			return off >= s.Lo
		}
	}
	return false
}
