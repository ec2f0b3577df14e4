package traffic

import (
	"slices"
	"sync"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/pipeline"
)

// verifySlack is how far past its slot a verified burst's window runs
// (carrier-rate samples): room for the DUC/DDC group delays. verifyChunk
// is how many carrier-rate samples one down-conversion task converts, so
// that a frame of one or two bursts still fans out: a chunk is its run's
// slice bit for bit (Demux.ProcessWindowInto).
const verifySlack, verifyChunk = 160, 1024

// verifyRun is one stretch of a carrier the ground receiver
// down-converts: the windows of consecutive sent slots, merged, or one
// chunk of such a run.
type verifyRun struct {
	carrier, lo, hi int     // carrier-rate samples lo..hi-1 of the frame
	base            dsp.Vec // the down-converted stretch (a run's is pooled)
}

// sentBurst is a burst under verification: its cell and its run's index.
type sentBurst struct {
	cell modem.SlotAssignment
	run  int
}

// groundReceiver is the ground station checking the downlink: a DDC
// bank, pooled burst demodulators and a verify's per-frame scratch. It
// runs inside egress, and one egress is in flight at a time, so one copy
// serves every frame.
type groundReceiver struct {
	decim   int
	slotLen int // carrier-rate samples per slot
	demux   *frontend.Demux
	dems    sync.Pool // burst demodulators

	runs   []verifyRun
	chunks []verifyRun   // base: a slice of its run's
	bursts []sentBurst   // the grid's busy cells, in carrier order, slots ascending
	outs   []egressDelta // one sent burst's verdict each
	decs   [][]byte      // one sent burst's decoded bits each, storage kept

	// downconvert and check are the two fan-out bodies (downconvertChunk,
	// checkBurst), held as values so tests can wrap them.
	downconvert, check func(int)
	// per-call arguments of the two worker bodies
	wide  dsp.Vec
	codec fec.Codec
	grid  [][][]byte
}

func newGroundReceiver(frame modem.FrameConfig, plan frontend.CarrierPlan, bf modem.BurstFormat) *groundReceiver {
	g := &groundReceiver{
		decim:   plan.Decim,
		slotLen: frame.SlotSymbols * plan.Decim,
		demux:   frontend.NewDemux(plan, 95),
	}
	g.dems.New = func() any {
		return modem.NewBurstDemodulator(bf, 0.35, plan.Decim, 10, modem.TimingOerderMeyr)
	}
	g.downconvert, g.check = g.downconvertChunk, g.checkBurst
	return g
}

// verify demodulates the transmitted wideband block and compares every
// burst of the downlink grid bit for bit — the loopback contract of the
// regenerative loop. The receiver knows the burst time plan (the grid's
// busy cells), so it down-converts only the runs of slots that carried a
// burst, verifyChunk samples a task: a full grid costs what
// whole-carrier demultiplexing does, an idle one nothing.
func (g *groundReceiver) verify(wide dsp.Vec, codec fec.Codec, grid [][][]byte) egressDelta {
	carrierLen := (len(wide) + g.decim - 1) / g.decim
	g.runs, g.bursts = g.runs[:0], g.bursts[:0]
	for c, slots := range grid {
		for s, bits := range slots {
			if bits == nil {
				continue
			}
			// Overlapping windows are neighbours in grid order.
			lo := s * g.slotLen
			hi := min(lo+g.slotLen+verifySlack, carrierLen)
			if n := len(g.runs); n > 0 && g.runs[n-1].carrier == c && lo <= g.runs[n-1].hi {
				g.runs[n-1].hi = hi
			} else {
				g.runs = append(g.runs, verifyRun{carrier: c, lo: lo, hi: hi})
			}
			g.bursts = append(g.bursts, sentBurst{modem.SlotAssignment{Carrier: c, Slot: s}, len(g.runs) - 1})
		}
	}
	g.outs = slices.Grow(g.outs[:0], len(g.bursts))[:len(g.bursts)]
	g.decs = append(g.decs, make([][]byte, max(len(g.bursts)-len(g.decs), 0))...)
	g.chunks = g.chunks[:0]
	for i := range g.runs {
		r := &g.runs[i]
		r.base = dsp.GetVec(r.hi - r.lo)
		for lo := r.lo; lo < r.hi; lo += verifyChunk {
			hi := min(lo+verifyChunk, r.hi)
			g.chunks = append(g.chunks, verifyRun{r.carrier, lo, hi, r.base[lo-r.lo : hi-r.lo]})
		}
	}
	g.wide, g.codec, g.grid = wide, codec, grid
	pipeline.ForEach(len(g.chunks), g.downconvert)
	pipeline.ForEach(len(g.bursts), g.check)
	g.wide, g.codec, g.grid = nil, nil, nil
	var d egressDelta
	for _, o := range g.outs {
		d.lost += o.lost
		d.bitErrs += o.bitErrs
	}
	for i := range g.runs {
		dsp.PutVec(g.runs[i].base)
		g.runs[i].base = nil
	}
	return d
}

// downconvertChunk down-converts chunk i of the frame under
// verification.
func (g *groundReceiver) downconvertChunk(i int) {
	c := &g.chunks[i]
	g.demux.ProcessWindowInto(c.base, g.wide, c.carrier, c.lo, c.hi)
}

// checkBurst demodulates and decodes burst i out of its run, compares
// it with its grid cell's bits and records the verdict.
func (g *groundReceiver) checkBurst(i int) {
	b := g.bursts[i]
	r := &g.runs[b.run]
	start := b.cell.Slot*g.slotLen - r.lo
	end := min(start+g.slotLen+verifySlack, len(r.base))
	dem := g.dems.Get().(*modem.BurstDemodulator)
	defer g.dems.Put(dem) // after the decode: the soft bits are its buffer
	res := dem.Demodulate(r.base[start:end])
	if !res.Found {
		g.outs[i] = egressDelta{lost: 1}
		return
	}
	// The ground receiver decodes hard decisions: slice the signs
	// into the saturated ±10 LLRs fec.HardLLR(modem.HardBits(soft))
	// would build, in place.
	bits := g.grid[b.cell.Carrier][b.cell.Slot]
	llr := res.Soft[:g.codec.EncodedLen(len(bits))]
	for j, s := range llr {
		llr[j] = 10
		if s < 0 {
			llr[j] = -10
		}
	}
	g.decs[i] = g.codec.AppendDecode(g.decs[i][:0], llr)
	g.outs[i] = egressDelta{bitErrs: fec.CountBitErrors(bits, g.decs[i][:len(bits)])}
}
