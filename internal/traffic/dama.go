package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/switchfab"
)

// uplinkCell is one granted cell of the frame: who transmits what in it.
type uplinkCell struct {
	term *termState
	info []byte
}

// ingestPlan is the frame's burst time plan: the flat info-bit backing,
// the granted-cell list sub-slicing it, and the receive-path
// assignment/meta slices, one entry per cell. Only ingest touches it
// (decoded packets carry fresh bit slices), so one plan serves every
// frame.
type ingestPlan struct {
	infoBuf []byte
	cells   []uplinkCell
	asgs    []modem.SlotAssignment
	metas   []payload.RouteMeta
}

// termState is one terminal's live engine state: the terminal itself,
// its deterministic payload-bit RNG, and its accumulated statistics
// (cfoAbsSum is the sum behind stat.MeanAbsCFO, set by terminalRows).
// Queued packets and in-flight cells reference it by pointer, so a
// terminal that leaves mid-run keeps accruing delivery stats for
// packets it already got into the sky. profSince anchors the channel
// profile's Doppler ramp: a profile installed mid-run (join or
// set-channel) starts drifting from its installation frame, not
// retroactively from frame 0.
type termState struct {
	term      Terminal
	rng       *rand.Rand
	stat      TerminalStats
	cfoAbsSum float64
	active    bool
	profSince int
}

// popState is one aggregate population's live engine state: the
// definition, its per-beam member blocks, and its accounting — admission
// and routing in stat, delivery (emitPacket) in dlv.
type popState struct {
	def   Population
	beams []popBeam
	stat  PopulationStats
	dlv   delivery
}

// popBeam is one population's member block on one beam; granted hands a
// frame's admitted cells from the admission pass to routeAggregates.
type popBeam struct {
	beam         int
	lo, hi       int // member block [lo, hi)
	untraced     int // members in the block not modeled as tracers
	tracerModels []Model
	granted      int
}

// damaController is the terminal side of the control plane — the
// paper's single DAMA block: the live population (terminals and
// aggregate populations), the return-link slot scheduler and the
// frame's burst time plan. It runs on the control thread only. The
// overload policy and queue bound in force and the report it accounts
// into are the engine's and arrive as arguments.
type damaController struct {
	beams int   // downlink beams: the bound on a terminal's or block's beam
	seed  int64 // Config.Seed, the root of the per-terminal payload RNGs
	sched *modem.SlotScheduler
	fab   *switchfab.Fabric // backpressure room is read from it, aggregate cells enter it

	// terms is the population in join order, departed terminals
	// included (active=false) so their statistics survive a mid-run
	// leave; rngSeq counts terminals ever admitted so each gets a
	// stable deterministic seed regardless of later joins/leaves. byID
	// indexes the active terminals, so admission checks and event
	// lookups stay O(1) through join/leave storms.
	terms  []*termState
	byID   map[string]*termState
	rngSeq int64
	pops   []*popState

	room    [][switchfab.NumClasses]int
	aggBits []byte // shared k-bit payload stand-in for aggregate packets
	plan    ingestPlan
}

func newDAMAController(cfg Config, fab *switchfab.Fabric) *damaController {
	return &damaController{
		beams: cfg.Frame.Carriers,
		seed:  cfg.Seed,
		sched: modem.NewSlotScheduler(cfg.Frame),
		fab:   fab,
		byID:  make(map[string]*termState),
		room:  make([][switchfab.NumClasses]int, cfg.Frame.Carriers),
	}
}

// admit validates a terminal against the live population and joins it
// at the given frame.
func (d *damaController) admit(t Terminal, frame int) error {
	if t.ID == "" || t.Model == nil {
		return errors.New("traffic: terminal needs an ID and a model")
	}
	if _, dup := d.byID[t.ID]; dup {
		return fmt.Errorf("traffic: duplicate terminal %q", t.ID)
	}
	if t.Beam < 0 || t.Beam >= d.beams {
		return fmt.Errorf("traffic: terminal %q beam %d outside the %d-beam downlink", t.ID, t.Beam, d.beams)
	}
	ts := &termState{
		term:      t,
		rng:       rand.New(rand.NewSource(d.seed + d.rngSeq*7919)),
		stat:      TerminalStats{ID: t.ID, Model: t.Model.Name()},
		active:    true,
		profSince: frame,
	}
	d.terms = append(d.terms, ts)
	d.byID[t.ID] = ts
	d.rngSeq++
	return nil
}

// remove departs an active terminal: its scheduler holdings are released
// at once; its row and the packets it already queued stay.
func (d *damaController) remove(id string) error {
	ts, err := d.lookup(id)
	if err != nil {
		return err
	}
	ts.active = false
	delete(d.byID, id)
	d.sched.Release(id)
	return nil
}

// lookup finds an active terminal by ID.
func (d *damaController) lookup(id string) (*termState, error) {
	if ts, ok := d.byID[id]; ok {
		return ts, nil
	}
	return nil, fmt.Errorf("traffic: unknown terminal %q", id)
}

// adoptPopulations validates the aggregate populations and builds their
// per-beam block state (construction-time only; populations are fixed
// for the run, unlike terminals, which join and leave freely).
func (d *damaController) adoptPopulations(pops []Population) error {
	names := make(map[string]bool, len(pops))
	for _, p := range pops {
		if p.Name == "" || p.Model == nil {
			return errors.New("traffic: population needs a name and an aggregate model")
		}
		if names[p.Name] {
			return fmt.Errorf("traffic: duplicate population %q", p.Name)
		}
		names[p.Name] = true
		if p.Count < 1 {
			return fmt.Errorf("traffic: population %q has %d members", p.Name, p.Count)
		}
		if len(p.Beams) == 0 {
			return fmt.Errorf("traffic: population %q has no beams", p.Name)
		}
		for _, b := range p.Beams {
			if b < 0 || b >= d.beams {
				return fmt.Errorf("traffic: population %q beam %d outside the %d-beam downlink", p.Name, b, d.beams)
			}
		}
		if len(p.TracerMembers) > p.Count {
			return fmt.Errorf("traffic: population %q traces %d of %d members", p.Name, len(p.TracerMembers), p.Count)
		}
		for i, m := range p.TracerMembers {
			if m < 0 || m >= p.Count {
				return fmt.Errorf("traffic: population %q tracer member %d outside [0, %d)", p.Name, m, p.Count)
			}
			if i > 0 && m <= p.TracerMembers[i-1] {
				return fmt.Errorf("traffic: population %q tracer members not sorted ascending", p.Name)
			}
		}
		ps := &popState{
			def: p,
			stat: PopulationStats{
				Name:    p.Name,
				Model:   p.Model.Name(),
				Class:   p.Class.String(),
				Members: p.Count,
				Tracers: len(p.TracerMembers),
			},
		}
		ps.beams = make([]popBeam, len(p.Beams))
		ti := 0
		for bi := range ps.beams {
			pb := &ps.beams[bi]
			pb.beam = p.Beams[bi]
			pb.lo, pb.hi = memberBlock(bi, p.Count, len(p.Beams))
			for ; ti < len(p.TracerMembers) && p.TracerMembers[ti] < pb.hi; ti++ {
				pb.tracerModels = append(pb.tracerModels, p.Model.Member(p.TracerMembers[ti]))
			}
			pb.untraced = (pb.hi - pb.lo) - len(pb.tracerModels)
		}
		d.pops = append(d.pops, ps)
	}
	return nil
}

// grant releases last frame's burst time plan and grants frame f's:
// every terminal, in population order, requests its model's demand,
// clipped to the remaining frame capacity (and, under Backpressure, to
// the room left in its destination (beam, class) queue — admission
// control is class-aware, so a best-effort backlog throttles only
// best-effort sources); the aggregate populations follow. It returns
// the plan of the granted waveform cells, each carrying k fresh info
// bits.
func (d *damaController) grant(f, k int, policy DropPolicy, depth int, met *Report) *ingestPlan {
	plan := &d.plan
	for _, ts := range d.terms {
		if ts.active {
			d.sched.Release(ts.term.ID)
		}
	}
	var room [][switchfab.NumClasses]int
	if policy == Backpressure {
		room = d.room
		for b := range room {
			for c := 0; c < switchfab.NumClasses; c++ {
				room[b][c] = depth - d.fab.ClassQueueDepth(b, switchfab.Class(c))
			}
		}
	}
	// Per-cell info bits live in one flat frame-scoped buffer sized for
	// the worst case (every slot granted); cells sub-slice it, so a
	// frame's worth of payload generation costs zero allocations once
	// the buffer and cell slice reach steady state.
	if need := d.sched.Capacity() * k; cap(plan.infoBuf) < need {
		plan.infoBuf = make([]byte, need)
	}
	buf, off := plan.infoBuf[:cap(plan.infoBuf)], 0
	plan.cells, plan.asgs, plan.metas = plan.cells[:0], plan.asgs[:0], plan.metas[:0]
	for _, ts := range d.terms {
		if !ts.active {
			continue
		}
		t := ts.term
		n := t.Model.Demand(f)
		met.OfferedCells += n
		ts.stat.OfferedCells += n
		if n == 0 {
			continue
		}
		n, throttled, denied := admit(room, t.Beam, t.Class, n, d.sched.Capacity()-d.sched.Allocated())
		met.ThrottledCells += throttled
		met.DeniedCells += denied
		if n == 0 {
			continue
		}
		asgs, err := d.sched.Request(t.ID, n)
		if err != nil {
			// Cannot happen after the clamp; keep the loop total anyway.
			met.DeniedCells += n
			continue
		}
		met.GrantedCells += len(asgs)
		ts.stat.GrantedCells += len(asgs)
		for _, a := range asgs {
			info := buf[off : off+k : off+k]
			off += k
			for i := range info {
				info[i] = byte(ts.rng.Intn(2))
			}
			plan.cells = append(plan.cells, uplinkCell{term: ts, info: info})
			plan.asgs = append(plan.asgs, a)
			plan.metas = append(plan.metas, payload.RouteMeta{Beam: t.Beam, Class: t.Class, Term: ts, Ingress: f, InfoBits: k})
		}
	}
	d.grantAggregates(f, k, room, met)
	return plan
}

// admit is the admission rule both DAMA passes apply to a demand of d
// cells: under backpressure (room != nil) clip it to the room left in
// its (beam, class) queue and reserve what passes, then clip it to the
// free cells left in the frame.
func admit(room [][switchfab.NumClasses]int, beam int, class switchfab.Class, d, free int) (granted, throttled, denied int) {
	if room != nil {
		r := &room[beam][class]
		if d > *r {
			throttled = d - max(*r, 0)
			d = *r
		}
		if d <= 0 {
			return 0, throttled, 0
		}
		*r -= d
	}
	if d > free {
		denied = d - free
		d = free
	}
	return d, throttled, denied
}

// grantAggregates runs the aggregate side of admission control after the
// terminal loop: tracers are pinned measurement channels that request
// first, the untraced remainder of each population block competes for
// what is left of the frame. Aggregate cells are flow-level — no slots
// are physically assigned and no waveform is synthesized — but they
// consume uplink capacity, respect backpressure room and enter the
// fabric's bounded queues like any decoded packet, so queue pressure
// and QoS behaviour at scale are real. With every member traced
// (untraced == 0 throughout) this pass touches nothing and the run is
// bit-identical to the per-terminal path.
func (d *damaController) grantAggregates(f, k int, room [][switchfab.NumClasses]int, met *Report) {
	aggAlloc := 0
	for _, ps := range d.pops {
		for i := range ps.beams {
			pb := &ps.beams[i]
			if pb.untraced == 0 {
				continue
			}
			// The block total covers tracer members too; subtracting
			// their individual draws leaves exactly the untraced
			// remainder's demand (exact for the analytic models, clamped
			// for the statistical ones).
			n := ps.def.Model.BlockDemand(f, pb.lo, pb.hi)
			for _, tm := range pb.tracerModels {
				n -= tm.Demand(f)
			}
			n = max(n, 0)
			met.OfferedCells += n
			ps.stat.OfferedCells += n
			if n == 0 {
				continue
			}
			n, throttled, denied := admit(room, pb.beam, ps.def.Class, n, d.sched.Capacity()-d.sched.Allocated()-aggAlloc)
			met.ThrottledCells += throttled
			ps.stat.ThrottledCells += throttled
			met.DeniedCells += denied
			ps.stat.DeniedCells += denied
			aggAlloc += n
			pb.granted = n
			met.GrantedCells += n
			ps.stat.GrantedCells += n
			ps.stat.UplinkBits += n * k
		}
	}
}

// routeAggregates enqueues the frame's granted aggregate cells into the
// switching fabric in population order, after the frame's decoded
// tracer bursts (same ingress frame). All aggregate packets of a frame
// share one zeroed k-bit payload, so delivered-bit accounting is exact
// at zero per-packet allocation.
func (d *damaController) routeAggregates(f, k int) {
	if len(d.aggBits) != k {
		d.aggBits = make([]byte, k)
	}
	for _, ps := range d.pops {
		pkt := switchfab.Packet{Bits: d.aggBits, Class: ps.def.Class, Term: ps, Ingress: f}
		for i := range ps.beams {
			pb := &ps.beams[i]
			for ; pb.granted > 0; pb.granted-- {
				if d.fab.RoutePacket(pb.beam, pkt) {
					ps.stat.RoutedPackets++
				} else {
					ps.stat.DroppedQueue++
				}
			}
		}
	}
}

// account books the payload's receipts of the planned cells: the run's
// uplink counters into met, sync diagnostics and decoded bits per
// terminal. Queue-full tail drops happened inside the fabric, per
// class; the report folds its counters in.
func (d *damaController) account(receipts []payload.BurstReceipt, k int, met *Report) {
	for i, r := range receipts {
		c := &d.plan.cells[i]
		met.UplinkBursts++
		// Only receipts whose demodulation actually ran carry sync
		// diagnostics; a burst lost to a service outage would otherwise
		// pin the terminal's worst-UW stat to zero.
		if st := &c.term.stat; r.Sync.Scanned {
			af := math.Abs(r.Sync.FreqEst)
			c.term.cfoAbsSum += af
			st.MaxAbsCFO = max(st.MaxAbsCFO, af)
			if st.SyncBursts == 0 || r.Sync.UWMetric < st.MinUWMetric {
				st.MinUWMetric = r.Sync.UWMetric
			}
			st.SyncBursts++
		}
		if r.Err != nil {
			met.UplinkFailures++
			continue
		}
		met.UplinkBitErrs += fec.CountBitErrors(c.info, r.Bits[:k])
		c.term.stat.UplinkBits += k
	}
}

// activeTerminals returns the active population in join order.
func (d *damaController) activeTerminals() []Terminal {
	var out []Terminal
	for _, ts := range d.terms {
		if ts.active {
			out = append(out, ts.term)
		}
	}
	return out
}

// terminalRows reduces the terminal states to their report rows, in
// join order, departed terminals included.
func (d *damaController) terminalRows() []TerminalStats {
	rows := make([]TerminalStats, len(d.terms))
	for i, ts := range d.terms {
		rows[i] = ts.stat
		if n := ts.stat.SyncBursts; n > 0 {
			rows[i].MeanAbsCFO = ts.cfoAbsSum / float64(n)
		}
	}
	return rows
}

// populationRows returns one row per aggregate population (nil without
// any). Rows cover the aggregate remainder only; tracer terminals
// report individually.
func (d *damaController) populationRows() []PopulationStats {
	var rows []PopulationStats
	for _, ps := range d.pops {
		st := ps.stat
		st.DeliveredPackets, st.DeliveredBits = ps.dlv.packets, ps.dlv.bits
		st.LatencySum, st.LatencyMean, st.LatencyMax = ps.dlv.latSum, ps.dlv.mean(), ps.dlv.latMax
		rows = append(rows, st)
	}
	return rows
}
