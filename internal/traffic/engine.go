package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/pipeline"
	"repro/internal/switchfab"
)

// DropPolicy selects how a full downlink queue is handled.
type DropPolicy int

const (
	// DropTail discards the newest packet when a beam's queue is full.
	DropTail DropPolicy = iota
	// Backpressure throttles at the source instead: a terminal is only
	// granted as many cells as its destination beam queue can still
	// absorb, so packets are held at the terminals rather than dropped
	// in the sky. DropTail remains the safety net for packets already
	// in flight (e.g. when uplink losses were overestimated).
	Backpressure
)

// String implements fmt.Stringer.
func (p DropPolicy) String() string {
	if p == Backpressure {
		return "backpressure"
	}
	return "drop-tail"
}

// Config parameterizes an engine run.
type Config struct {
	// Frame is the MF-TDMA grid used for both the return and forward
	// link; Frame.Carriers must not exceed the payload's carrier count.
	Frame modem.FrameConfig
	// Plan is the downlink carrier plan; the zero value selects
	// DefaultPlan(Frame.Carriers).
	Plan frontend.CarrierPlan
	// QueueDepth bounds each (beam, class) downlink queue in packets —
	// per class, so a best-effort backlog cannot evict a priority
	// class's buffer space (single-class runs see the familiar per-beam
	// bound).
	QueueDepth int
	// Policy selects the overload behaviour of the bounded queues.
	Policy DropPolicy
	// Scheduler fills downlink slots from the switching fabric's class
	// queues; nil selects switchfab.FIFO (arrival order, bit-identical
	// to the pre-fabric engine on single-class runs).
	Scheduler switchfab.Scheduler
	// EbN0dB applies AWGN to every uplink burst at the given Eb/N0;
	// zero or negative leaves the uplink noiseless.
	EbN0dB float64
	// Verify demodulates the transmitted downlink on a ground receiver
	// and checks every delivered packet bit for bit.
	Verify bool
	// Seed drives the terminal payload bits and the channel noise.
	Seed int64
}

// DefaultConfig returns a bounded, noiseless, unverified configuration
// on the default 6-carrier frame.
func DefaultConfig() Config {
	return Config{
		Frame:      modem.DefaultFrameConfig(),
		QueueDepth: 32,
		Policy:     DropTail,
		Seed:       1,
	}
}

// BurstBandwidth is the bandwidth one downlink burst occupies, in
// cycles per wideband sample: (1+α) symbol rates at the RRC roll-off
// 0.35, 4 samples/symbol and DefaultPlan's 4× interpolation. Carriers
// spaced closer than this overlap, and the ground verifier loses bits
// on a clean channel.
const BurstBandwidth = 1.35 / 16

// DefaultPlan returns a downlink carrier plan at the payload's 4
// samples/symbol with the carriers spread evenly inside Nyquist.
func DefaultPlan(carriers int) frontend.CarrierPlan {
	spacing := 0.8 / float64(carriers)
	if spacing > 0.2 {
		spacing = 0.2
	}
	return frontend.CarrierPlan{Carriers: carriers, Spacing: spacing, Decim: 4}
}

// InfoBitsFor returns the largest info-bit count whose codeword fits the
// burst payload budget (byte-ish granularity, as the link dimensioning
// tools use throughout the repo).
func InfoBitsFor(c fec.Codec, budget int) int {
	k := 16
	for c.EncodedLen(k+8) <= budget {
		k += 8
	}
	return k
}

// uplinkCell is one granted (carrier, slot) cell of the current frame.
type uplinkCell struct {
	asg  modem.SlotAssignment
	term *termState
	info []byte
}

// sentCell is one downlink burst of the current frame.
type sentCell struct {
	pkt  switchfab.Packet
	cell modem.SlotAssignment
}

// ingestPlan is the ingest-side frame scratch: the flat info-bit
// backing, the granted-cell list sub-slicing it, and the receive-path
// assignment/meta slices. Only ingest touches it (egress and verify
// read the egressGen alone; decoded packets carry fresh bit slices), so
// one plan serves every frame.
type ingestPlan struct {
	infoBuf []byte
	cells   []uplinkCell
	asgs    []modem.SlotAssignment
	metas   []payload.RouteMeta
}

// egressGen is one generation of the egress-side frame state: the
// downlink transmit grid and the sent-cell list the ground verifier
// walks. Two generations alternate by frame parity, so the scheduler
// fill of frame N+1 (control thread) writes its generation while frame
// N's in-flight egress still reads the other.
type egressGen struct {
	grid [][][]byte
	sent []sentCell
}

// framePrep is the per-frame plan handed from beginFrame through
// ingest, fill and egress: the frame index, the codec in force, the
// burst's coded-bit budget and the info-bit count that fits it, all
// resolved once in the frame prologue, plus the parity-selected egress
// generation. It travels by value to the egress worker, so egress never
// re-reads engine fields the next frame's prologue may rewrite.
type framePrep struct {
	f      int
	k      int
	budget int
	codec  fec.Codec
	t0     time.Time
	gen    *egressGen
}

// egressDelta is the ground-verify outcome of one frame's egress,
// returned instead of written to the shared report so a concurrent
// ingest never races the verify counters; join folds it.
type egressDelta struct {
	lost    int
	bitErrs int
}

// egressOutcome is what an overlapped egress hands back at the join:
// the verify delta to fold, the egress wall time (for the overlap/stall
// split) and the transmit error, if any.
type egressOutcome struct {
	d   egressDelta
	dur time.Duration
	err error
}

// clsAccum collects engine-side per-class delivery statistics; the
// fabric-side counters (routed, dropped, high water) merge in at
// snapshot time (perClass).
type clsAccum struct {
	delivered int
	bits      int
	reencode  int
	latSum    int
	latMax    int
}

// Engine drives the closed regenerative loop frame after frame. Since
// the switching fabric landed there is no engine-owned queue layer: the
// payload's fabric is the single downlink queue — uplink receipts
// enter it as typed packets (class, terminal, ingress frame) and the
// downlink scheduler pops them straight into the transmit grid.
type Engine struct {
	pl      *payload.Payload
	tx      *payload.Transmitter
	sched   *modem.SlotScheduler
	fab     *switchfab.Fabric
	dlsched switchfab.Scheduler
	cfg     Config

	// terms is the population in join order, departed terminals
	// included (active=false) so their statistics survive a mid-run
	// leave; rngSeq counts terminals ever admitted so each gets a
	// stable deterministic seed regardless of later joins/leaves. byID
	// indexes the active terminals, so admission checks and event
	// lookups stay O(1) through join/leave storms.
	terms  []*termState
	byID   map[string]*termState
	rngSeq int64

	// pops are the aggregate populations (two-tier model): one popState
	// per Population, with per-(population, beam) block state. beamAgg
	// groups the blocks by physical beam for the per-beam routing tasks.
	pops    []*popState
	beamAgg [][]*popBeam

	frame int

	mods    sync.Pool // terminal-side burst modulators
	chans   sync.Pool // per-burst uplink channels (Reseed'd each use)
	encBufs sync.Pool // *[]byte encode scratch, padded to the burst budget
	gdemux  *frontend.Demux
	gdems   sync.Pool // ground-side burst demodulators
	gllrs   sync.Pool // *[]float64 sign-sliced LLRs of one verified burst
	ver     verifyScratch

	// scratch reused across frames. fc, room, aggBits and plan are
	// single buffers because every stage that touches them runs on the
	// control thread (ingest and fill); gens — transmit grid plus the
	// sent-cell list the ground verifier walks — is double-buffered by
	// frame parity (beginFrame), so the fill of frame N+1 never rewrites
	// what frame N's in-flight egress still reads (DESIGN §12).
	fc      *modem.FrameComposer
	room    [][switchfab.NumClasses]int
	aggBits []byte // shared k-bit payload stand-in for aggregate packets
	plan    ingestPlan
	gens    [2]egressGen

	// fill is the frame plan every beam's fill task reads while the
	// downlink scheduler pops packets into the transmit grid; it is
	// written once per frame before the tasks fan out and read-only
	// underneath them.
	fill framePrep
	// beams is the per-beam downlink fill state (slot cursor, sent
	// cells, per-class delivery deltas, preallocated emit closure): each
	// beam's schedule/fill runs as its own pipeline task touching only
	// its entry, and the deltas merge into the run totals in beam order
	// after the fan-in — bit-identical to the old sequential fill.
	beams      []beamState
	aggPending bool // a dama pass granted aggregate cells this frame

	met    Report
	cls    [switchfab.NumClasses]clsAccum
	latSum int
	wall   time.Duration

	// stages, when attached, receives one per-stage duration sample per
	// frame (see StageTimers). Nil means the untimed hot path: no
	// per-stage clock reads at all (clock).
	stages *StageTimers

	// Cross-frame overlap (DESIGN §12). jobs and outs are the egress
	// worker's channels, non-nil exactly while its goroutine exists;
	// inflight marks a dispatched egress not yet joined; err is the
	// sticky failure of an egress, returned by every later Step/Drain.
	jobs     chan framePrep
	outs     chan egressOutcome
	inflight bool
	err      error
}

// termState is one terminal's live engine state: the terminal itself,
// its deterministic payload-bit RNG, and its accumulated statistics.
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
	sync      syncAccum
	active    bool
	profSince int
}

// syncAccum collects per-terminal burst synchronization statistics from
// the uplink receipts; Report reduces them to the published stats.
type syncAccum struct {
	bursts     int
	freqAbsSum float64
	freqAbsMax float64
	uwMin      float64
}

// beamState is one downlink beam's fill-stage state. During the
// schedule stage it is owned exclusively by that beam's task: the task
// holds the fabric shard lock for its beam, writes only its own grid
// row, sent slice and class accumulators, and the per-frame deltas
// merge sequentially afterwards.
type beamState struct {
	beam int
	slot int
	sent []sentCell
	cls  [switchfab.NumClasses]clsAccum
	emit func(switchfab.Packet) bool
}

// popState is one aggregate population's live engine state: the
// definition, its per-beam member blocks, and the request-side
// accounting (written sequentially in dama).
type popState struct {
	def   Population
	beams []popBeam
	stat  PopulationStats
}

// popBeam is one population's member block on one beam. granted hands a
// frame's admitted cells from the sequential dama pass to the per-beam
// routing task; routed/dropped/delivered accounting is cumulative and
// written only by that beam's task (routing and fill), so the shard
// ownership rule holds without atomics.
type popBeam struct {
	ps           *popState
	beam         int
	lo, hi       int // member block [lo, hi)
	untraced     int // members in the block not modeled as tracers
	tracerModels []Model

	granted int // cells admitted this frame, consumed by routing

	routed    int
	dropped   int
	delivered int
	bits      int
	latSum    int
	latMax    int
}

// New builds an engine around a booted TDMA payload. The terminal list
// is the population; order is part of the deterministic contract (DAMA
// requests are issued in slice order every frame).
func New(pl *payload.Payload, cfg Config, terminals []Terminal) (*Engine, error) {
	return NewPopulations(pl, cfg, terminals, nil)
}

// NewPopulations builds an engine over the two-tier population model:
// terminals are full per-terminal sources (tracers included, in the
// join order the caller chose), pops are aggregate populations whose
// untraced remainders request capacity as per-beam block demand after
// the terminal loop each frame. Either list may be empty, not both.
// Frame cost and memory scale with populations + tracers + beams, never
// with Population.Count.
func NewPopulations(pl *payload.Payload, cfg Config, terminals []Terminal, pops []Population) (*Engine, error) {
	if pl.Mode() != payload.ModeTDMA {
		return nil, errors.New("traffic: engine requires the TDMA waveform")
	}
	if cfg.Frame.Carriers < 1 || cfg.Frame.Slots < 1 {
		return nil, errors.New("traffic: frame needs at least one carrier and one slot")
	}
	if cfg.Frame.Carriers > pl.Config().Carriers {
		return nil, fmt.Errorf("traffic: frame has %d carriers, payload serves %d", cfg.Frame.Carriers, pl.Config().Carriers)
	}
	if cfg.QueueDepth < 1 {
		return nil, errors.New("traffic: queue depth must be at least 1")
	}
	if len(terminals) == 0 && len(pops) == 0 {
		return nil, errors.New("traffic: empty terminal population")
	}
	plan := cfg.Plan
	if plan.Carriers == 0 {
		plan = DefaultPlan(cfg.Frame.Carriers)
		cfg.Plan = plan
	}
	if plan.Carriers != cfg.Frame.Carriers {
		return nil, fmt.Errorf("traffic: plan has %d carriers, frame has %d", plan.Carriers, cfg.Frame.Carriers)
	}

	if cfg.Scheduler == nil {
		cfg.Scheduler = switchfab.FIFO{}
	}
	e := &Engine{
		pl:      pl,
		tx:      payload.NewTransmitter(pl, plan),
		sched:   modem.NewSlotScheduler(cfg.Frame),
		fab:     pl.Switch(),
		dlsched: cfg.Scheduler,
		cfg:     cfg,
		room:    make([][switchfab.NumClasses]int, cfg.Frame.Carriers),
		byID:    make(map[string]*termState),
		beamAgg: make([][]*popBeam, cfg.Frame.Carriers),
		beams:   make([]beamState, cfg.Frame.Carriers),
	}
	// The engine is the fabric's exclusive driver for the run: adopting
	// it clears any previous driver's queues and counters and installs
	// the per-(beam, class) bound (see the switchfab ownership rule).
	e.fab.Adopt(cfg.QueueDepth)
	for b := range e.beams {
		bs := &e.beams[b]
		bs.beam = b
		// One closure per beam, allocated once: the per-frame fill path
		// stays allocation-free however many beams run concurrently.
		bs.emit = func(p switchfab.Packet) bool { return e.emitPacket(bs, p) }
	}
	for _, t := range terminals {
		if err := e.admit(t); err != nil {
			return nil, err
		}
	}
	if err := e.adoptPopulations(pops); err != nil {
		return nil, err
	}
	e.resolveSyncConfig()
	for gi := range e.gens {
		g := &e.gens[gi]
		g.grid = make([][][]byte, cfg.Frame.Carriers)
		for c := range g.grid {
			g.grid[c] = make([][]byte, cfg.Frame.Slots)
		}
	}
	e.mods.New = func() any {
		return modem.NewBurstModulator(pl.BurstFormat(), 0.35, 4, 10)
	}
	e.chans.New = func() any { return dsp.NewChannel(0) }
	e.encBufs.New = func() any {
		b := make([]byte, 0, pl.BurstFormat().PayloadBits())
		return &b
	}
	if cfg.Verify {
		e.gdemux = frontend.NewDemux(plan, 95)
		e.gdems.New = func() any {
			return modem.NewBurstDemodulator(pl.BurstFormat(), 0.35, plan.Decim, 10, modem.TimingOerderMeyr)
		}
		e.gllrs.New = func() any {
			l := make([]float64, pl.BurstFormat().PayloadBits())
			return &l
		}
		e.ver.downconvert, e.ver.check = e.verifyRun, e.verifyBurst
	}
	return e, nil
}

// admit validates a terminal against the live population and joins it.
func (e *Engine) admit(t Terminal) error {
	if t.ID == "" || t.Model == nil {
		return errors.New("traffic: terminal needs an ID and a model")
	}
	if _, dup := e.byID[t.ID]; dup {
		return fmt.Errorf("traffic: duplicate terminal %q", t.ID)
	}
	if t.Beam < 0 || t.Beam >= e.cfg.Frame.Carriers {
		return fmt.Errorf("traffic: terminal %q beam %d outside the %d-beam downlink", t.ID, t.Beam, e.cfg.Frame.Carriers)
	}
	ts := &termState{
		term:      t,
		rng:       rand.New(rand.NewSource(e.cfg.Seed + e.rngSeq*7919)),
		stat:      TerminalStats{ID: t.ID, Model: t.Model.Name()},
		active:    true,
		profSince: e.frame,
	}
	e.terms = append(e.terms, ts)
	e.byID[t.ID] = ts
	e.rngSeq++
	return nil
}

// adoptPopulations validates the aggregate populations and builds their
// per-beam block state (construction-time only; populations are fixed
// for the run, unlike terminals, which join and leave freely).
func (e *Engine) adoptPopulations(pops []Population) error {
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
			if b < 0 || b >= e.cfg.Frame.Carriers {
				return fmt.Errorf("traffic: population %q beam %d outside the %d-beam downlink", p.Name, b, e.cfg.Frame.Carriers)
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
		nb := len(p.Beams)
		ps.beams = make([]popBeam, nb)
		ti := 0
		for bi := 0; bi < nb; bi++ {
			lo, hi := memberBlock(bi, p.Count, nb)
			pb := &ps.beams[bi]
			pb.ps = ps
			pb.beam = p.Beams[bi]
			pb.lo, pb.hi = lo, hi
			for ti < len(p.TracerMembers) && p.TracerMembers[ti] < hi {
				pb.tracerModels = append(pb.tracerModels, p.Model.Member(p.TracerMembers[ti]))
				ti++
			}
			pb.untraced = (hi - lo) - len(pb.tracerModels)
			e.beamAgg[pb.beam] = append(e.beamAgg[pb.beam], pb)
		}
		e.pops = append(e.pops, ps)
	}
	return nil
}

// resolveSyncConfig re-resolves the payload's burst synchronization
// chain against the current population. An impaired population needs
// the full chain: feedforward CFO recovery before the UW search and
// residual phase tracking across the payload. A clean population keeps
// (or, after an impaired stretch — e.g. a fade that has cleared —
// restores) the boot default, the legacy UW-phase-only chain, so
// clean-channel runs stay bit-identical to engines predating channel
// profiles. An explicitly configured payload is left alone; only
// engine-chosen defaults (SetSyncConfigAuto) are ever replaced. It is
// called at construction and whenever the population's impairments
// change mid-run (join, leave, channel-profile update).
func (e *Engine) resolveSyncConfig() {
	if e.pl.SyncConfigExplicit() {
		return
	}
	impaired := false
	for _, ts := range e.terms {
		if ts.active && ts.term.Channel.Impaired() {
			impaired = true
			break
		}
	}
	if impaired {
		// The unique-word threshold is lifted above the legacy 0.6:
		// the candidate search triples the per-slot UW scans, and a
		// pure-noise scan's best metric tails past 0.7 often enough
		// that the legacy threshold would false-lock, while true
		// locks at the coded-regime Es/N0 stay above 0.82 (see the
		// modem noise-rejection tests).
		e.pl.SetSyncConfigAuto(modem.SyncConfig{UWThreshold: 0.7, FreqRecovery: true, PhaseTrack: true})
	} else if e.pl.SyncConfigAuto() {
		e.pl.SetSyncConfigAuto(modem.SyncConfig{})
	}
}

// AddTerminal joins a terminal to the live population. Call it only at
// a frame boundary (between Step calls) — like every exported mutator
// it drains the engine first, so it never races an in-flight egress.
// The terminal issues its first DAMA request on the next frame, with
// demand evaluated at the absolute frame number. The join re-resolves
// the payload sync chain, so an impaired newcomer switches an until-now
// clean population onto the full burst synchronization chain.
func (e *Engine) AddTerminal(t Terminal) error {
	e.drain()
	if err := e.admit(t); err != nil {
		return err
	}
	e.resolveSyncConfig()
	return nil
}

// RemoveTerminal departs a terminal at a frame boundary: its scheduler
// holdings are released immediately, while packets it already got into
// the downlink queues still drain (and still count toward its stats).
// The departed terminal keeps its row in Report.PerTerminal.
func (e *Engine) RemoveTerminal(id string) error {
	e.drain()
	ts, err := e.lookup(id)
	if err != nil {
		return err
	}
	ts.active = false
	delete(e.byID, id)
	e.sched.Release(id)
	e.resolveSyncConfig()
	return nil
}

// SetTerminalChannel replaces a terminal's uplink channel profile at a
// frame boundary (nil restores the ideal channel) — the scripted-fade /
// Doppler-ramp hook. The profile's Doppler ramp is re-anchored at the
// upcoming frame, so Drift means "start drifting from here" rather
// than a retroactive jump of Drift×frames. The payload sync chain is
// re-resolved, so the first impairing profile switches the demodulator
// bank onto the full chain and the last clearing one restores the
// legacy chain.
func (e *Engine) SetTerminalChannel(id string, p *ChannelProfile) error {
	e.drain()
	ts, err := e.lookup(id)
	if err != nil {
		return err
	}
	ts.term.Channel = p
	ts.profSince = e.frame
	e.resolveSyncConfig()
	return nil
}

// SetQueueDepth rebounds the per-(beam, class) downlink queues at a
// frame boundary. A shrink does not evict packets already queued: the
// bound applies to subsequent enqueues (and, under Backpressure, to
// subsequent admission), so over-deep queues drain naturally.
func (e *Engine) SetQueueDepth(depth int) error {
	if depth < 1 {
		return fmt.Errorf("traffic: queue depth %d, must be at least 1", depth)
	}
	e.drain()
	e.cfg.QueueDepth = depth
	e.fab.SetDepth(depth)
	return nil
}

// SetQueuePolicy switches the overload policy at a frame boundary.
func (e *Engine) SetQueuePolicy(p DropPolicy) {
	e.drain()
	e.cfg.Policy = p
}

// SetScheduler swaps the downlink scheduler at a frame boundary — the
// set-scheduler scenario event. Queued packets stay queued; only the
// order (and share) in which they reach the transmit grid changes. A
// nil scheduler is an error, not a silent FIFO reset.
func (e *Engine) SetScheduler(s switchfab.Scheduler) error {
	if s == nil {
		return errors.New("traffic: nil downlink scheduler")
	}
	e.drain()
	e.dlsched = s
	e.cfg.Scheduler = s
	return nil
}

// SetTerminalClass reassigns a terminal's traffic class at a frame
// boundary — the set-class scenario event. Packets already queued keep
// the class they were routed with; subsequent uplink packets carry the
// new marking.
func (e *Engine) SetTerminalClass(id string, c switchfab.Class) error {
	if c >= switchfab.NumClasses {
		return fmt.Errorf("traffic: unknown traffic class %d", c)
	}
	e.drain()
	ts, err := e.lookup(id)
	if err != nil {
		return err
	}
	ts.term.Class = c
	return nil
}

// lookup finds an active terminal by ID through the index map — O(1)
// whatever the population size or join/leave history.
func (e *Engine) lookup(id string) (*termState, error) {
	if ts, ok := e.byID[id]; ok {
		return ts, nil
	}
	return nil, fmt.Errorf("traffic: unknown terminal %q", id)
}

// Terminals returns the active population in join order.
func (e *Engine) Terminals() []Terminal {
	var out []Terminal
	for _, ts := range e.terms {
		if ts.active {
			out = append(out, ts.term)
		}
	}
	return out
}

// Config returns the engine configuration as currently in force
// (queue depth and policy may have changed since construction).
func (e *Engine) Config() Config { return e.cfg }

// Frame returns the number of frames processed so far.
func (e *Engine) Frame() int { return e.frame }

// QueueDepth returns the packets currently queued for a beam across
// all classes, 0 for a beam outside the downlink (no panic: observers
// probe freely).
func (e *Engine) QueueDepth(beam int) int {
	if beam < 0 || beam >= e.cfg.Frame.Carriers {
		return 0
	}
	return e.fab.QueueDepth(beam)
}

// RunFrames advances the closed loop by n consecutive frames and
// returns drained. It may be called repeatedly — e.g. around a
// ground-initiated reconfiguration — with queues, scheduler state and
// metrics carrying over. A non-positive n is an explicit error rather
// than a silent no-op.
func (e *Engine) RunFrames(n int) error {
	if n <= 0 {
		return fmt.Errorf("traffic: RunFrames(%d): frame count must be positive", n)
	}
	for i := 0; i < n; i++ {
		if e.Step() != nil {
			break // sticky: Drain returns it
		}
	}
	return e.Drain()
}

// Step advances the closed loop by exactly one frame — the unit the
// scenario runtime schedules events and snapshots metrics around:
// prologue, the ingest half-frame, the scheduler fill at the fabric
// handoff, a join of the previous frame's egress, then this frame's
// egress half-frame. With more than one CPU (GOMAXPROCS > 1, the only
// selector) the egress goes to the engine's worker and overlaps the
// next Step's ingest and fill; on one CPU it runs inline. Both orders
// are bit-identical (DESIGN §12 gives the ownership argument); the one
// visible artifact is that an overlapped frame's ground-verify counters
// and egress error reach the report one join later — Drain catches up.
func (e *Engine) Step() error {
	if e.err != nil {
		return e.err
	}
	start := time.Now()
	defer func() { e.wall += time.Since(start) }()
	pf, ok := e.beginFrame()
	if !ok {
		// Outage frame: no stage runs; a previous egress stays in flight.
		return nil
	}
	e.ingest(&pf)
	e.fillFrame(&pf)
	e.join()
	if e.err != nil {
		return e.err
	}
	if runtime.GOMAXPROCS(0) > 1 {
		if e.jobs == nil {
			e.jobs, e.outs = make(chan framePrep), make(chan egressOutcome)
			go e.egressWorker(e.jobs, e.outs)
		}
		e.jobs <- pf
		e.inflight = true
		return nil
	}
	var d egressDelta
	d, e.err = e.egress(&pf)
	e.foldVerify(d)
	return e.err
}

// egressWorker runs dispatched egresses until drain closes jobs, and
// closes outs on its way out. It takes its channels by value: drain
// clears the engine's fields.
func (e *Engine) egressWorker(jobs <-chan framePrep, outs chan<- egressOutcome) {
	defer close(outs)
	for pf := range jobs {
		start := time.Now()
		d, err := e.egress(&pf)
		outs <- egressOutcome{d: d, dur: time.Since(start), err: err}
	}
}

// join blocks until the in-flight egress (if any) finishes, folds its
// verify delta into the report and records the occupancy timers: stall
// is the time spent blocked here, overlap the rest of the egress — the
// part that ran under this frame's control-thread work.
func (e *Engine) join() {
	if !e.inflight {
		return
	}
	start := time.Now()
	out := <-e.outs
	e.inflight = false
	stall := time.Since(start)
	e.foldVerify(out.d)
	e.err = out.err
	if e.stages != nil {
		e.stages[StageStall].Observe(float64(stall))
		e.stages[StageOverlap].Observe(float64(max(out.dur-stall, 0)))
	}
}

// Drain joins the in-flight frame, folds its verify delta, stops the
// egress worker (returning once it has exited) and reports the engine's
// sticky error: a drained engine is fully caught up, owns no goroutine
// and is safe to mutate, snapshot exactly or abandon; stepping may
// resume afterwards.
func (e *Engine) Drain() error {
	e.drain()
	return e.err
}

// drain is Drain for the mutators, which leave a failed egress for the
// next Step to report.
func (e *Engine) drain() {
	start := time.Now()
	e.join()
	if e.jobs != nil {
		close(e.jobs)
		<-e.outs
		e.jobs, e.outs = nil, nil
	}
	e.wall += time.Since(start)
}

// beginFrame is the frame prologue: it advances the frame clock, checks
// the payload can carry traffic (a mid-reconfiguration frame counts as
// an outage and runs no stage), resolves the codec and info-bit budget,
// and picks the frame's egress generation by parity. ok=false means the
// frame is already fully accounted (outage) and no stage must run.
func (e *Engine) beginFrame() (framePrep, bool) {
	f := e.frame
	e.frame++
	e.met.Frames++

	codec, err := e.pl.Codec()
	if err != nil || !e.pl.Chipset().FunctionHealthy(payload.FuncCoding) ||
		!e.pl.Chipset().FunctionHealthy(payload.FuncSwitch) {
		// Mid-reconfiguration: no coding function on board, so neither
		// link carries traffic this frame; queued packets wait it out.
		e.met.OutageFrames++
		return framePrep{}, false
	}
	budget := e.pl.BurstFormat().PayloadBits()
	k := InfoBitsFor(codec, budget)
	e.pl.SetBurstCodedBits(codec.EncodedLen(k))

	return framePrep{f: f, k: k, budget: budget, codec: codec, t0: e.clock(), gen: &e.gens[f&1]}, true
}

// clock starts a stage timing: the time now when StageTimers are
// attached, nothing read otherwise — the untimed hot path takes no
// per-stage clock reads at all.
func (e *Engine) clock() time.Time {
	if e.stages == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap ends a stage timing: it records the time since `since` as stage
// s's one observation for the frame and returns the clock reading, the
// next stage's start. Untimed it does nothing.
func (e *Engine) lap(s Stage, since time.Time) time.Time {
	now := e.clock()
	if e.stages != nil {
		e.stages[s].Observe(float64(now.Sub(since)))
	}
	return now
}

// ingest is the frame's first half-stage — DAMA grant, terminal-side
// burst synthesis, payload receive and fabric routing. It runs on the
// engine's control thread only: it owns the terminal states, the slot
// scheduler, the frame composer and the fabric's route side, none of
// which the concurrent egress of the previous frame touches.
//
// When stage timers are attached, the synthesis stage spans from the
// prologue timestamp (taken before DAMA) through the modulation
// fan-out, and the receive stage covers the payload pipeline, receipt
// accounting and the aggregate routing — one observation each per
// frame. A frame with no granted waveform cell skips the two fan-outs
// and nothing else, so per-stage sample counts line up with the frame
// count.
func (e *Engine) ingest(pf *framePrep) {
	cells := e.dama(pf)
	if len(cells) > 0 {
		e.synthesize(pf, cells)
	}
	tRecv := e.lap(StageSynthesis, pf.t0)
	if len(cells) > 0 {
		e.receive(pf, cells)
	}
	// Aggregate grants arrive behind the frame's decoded bursts: same
	// ingress frame, deterministic per-shard order.
	e.routeAggregates(pf.f, pf.k)
	e.lap(StageReceive, tRecv)
}

// foldVerify merges a frame's ground-verify outcome into the run
// report: right after an inline egress, at the join of an overlapped
// one — so a mid-run Report may lag the two verify counters by the one
// in-flight frame until the engine drains.
func (e *Engine) foldVerify(d egressDelta) {
	e.met.DownlinkLost += d.lost
	e.met.DownlinkBitErrs += d.bitErrs
}

// dama releases last frame's burst time plan and grants this frame's:
// every terminal, in population order, requests its model's demand,
// clipped to the remaining frame capacity (and, under Backpressure, to
// the room left in its destination (beam, class) queue — admission
// control is class-aware, so a best-effort backlog throttles only
// best-effort sources).
func (e *Engine) dama(pf *framePrep) []uplinkCell {
	f, k, plan := pf.f, pf.k, &e.plan
	for _, ts := range e.terms {
		if ts.active {
			e.sched.Release(ts.term.ID)
		}
	}
	var room [][switchfab.NumClasses]int
	if e.cfg.Policy == Backpressure {
		room = e.room
		for b := range room {
			for c := 0; c < switchfab.NumClasses; c++ {
				room[b][c] = e.cfg.QueueDepth - e.fab.ClassQueueDepth(b, switchfab.Class(c))
			}
		}
	}
	// Per-cell info bits live in one flat frame-scoped buffer sized for
	// the worst case (every slot granted); cells sub-slice it, so a
	// frame's worth of payload generation costs zero allocations once
	// the buffer and cell slice reach steady state.
	if need := e.sched.Capacity() * k; cap(plan.infoBuf) < need {
		plan.infoBuf = make([]byte, need)
	}
	buf, off := plan.infoBuf[:cap(plan.infoBuf)], 0
	cells := plan.cells[:0]
	for _, ts := range e.terms {
		if !ts.active {
			continue
		}
		t := ts.term
		d := t.Model.Demand(f)
		e.met.OfferedCells += d
		ts.stat.OfferedCells += d
		if d == 0 {
			continue
		}
		d, throttled, denied := admit(room, t.Beam, t.Class, d, e.sched.Capacity()-e.sched.Allocated())
		e.met.ThrottledCells += throttled
		e.met.DeniedCells += denied
		if d == 0 {
			continue
		}
		asgs, err := e.sched.Request(t.ID, d)
		if err != nil {
			// Cannot happen after the clamp; keep the loop total anyway.
			e.met.DeniedCells += d
			continue
		}
		e.met.GrantedCells += len(asgs)
		ts.stat.GrantedCells += len(asgs)
		for _, a := range asgs {
			info := buf[off : off+k : off+k]
			off += k
			for i := range info {
				info[i] = byte(ts.rng.Intn(2))
			}
			cells = append(cells, uplinkCell{asg: a, term: ts, info: info})
		}
	}
	plan.cells = cells
	e.damaAggregates(f, k, room)
	return cells
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

// damaAggregates runs the aggregate side of admission control after the
// terminal loop: tracers are pinned measurement channels that request
// first, the untraced remainder of each population block competes for
// what is left of the frame. Aggregate cells are flow-level — no slots
// are physically assigned and no waveform is synthesized — but they
// consume uplink capacity, respect backpressure room and enter the
// fabric's bounded queues like any decoded packet, so queue pressure
// and QoS behaviour at scale are real. With every member traced
// (untraced == 0 throughout) this pass touches nothing and the engine
// is bit-identical to the per-terminal path.
func (e *Engine) damaAggregates(f, k int, room [][switchfab.NumClasses]int) {
	e.aggPending = false
	if len(e.pops) == 0 {
		return
	}
	aggAlloc := 0
	for _, ps := range e.pops {
		for i := range ps.beams {
			pb := &ps.beams[i]
			pb.granted = 0
			if pb.untraced == 0 {
				continue
			}
			// The block total covers tracer members too; subtracting
			// their individual draws leaves exactly the untraced
			// remainder's demand (exact for the analytic models, clamped
			// for the statistical ones).
			d := ps.def.Model.BlockDemand(f, pb.lo, pb.hi)
			for _, tm := range pb.tracerModels {
				d -= tm.Demand(f)
			}
			if d < 0 {
				d = 0
			}
			e.met.OfferedCells += d
			ps.stat.OfferedCells += d
			if d == 0 {
				continue
			}
			d, throttled, denied := admit(room, pb.beam, ps.def.Class, d, e.sched.Capacity()-e.sched.Allocated()-aggAlloc)
			e.met.ThrottledCells += throttled
			ps.stat.ThrottledCells += throttled
			e.met.DeniedCells += denied
			ps.stat.DeniedCells += denied
			if d <= 0 {
				continue
			}
			aggAlloc += d
			pb.granted = d
			e.aggPending = true
			e.met.GrantedCells += d
			ps.stat.GrantedCells += d
			ps.stat.UplinkBits += d * k
		}
	}
}

// routeAggregates enqueues the frame's granted aggregate cells into the
// switching fabric, one task per beam (the fabric shards per beam, so
// the tasks never contend): each beam routes its populations' grants in
// population order — deterministic per shard — after the frame's
// decoded tracer bursts. All aggregate packets of a frame share one
// zeroed k-bit payload, so delivered-bit accounting is exact at zero
// per-packet allocation.
func (e *Engine) routeAggregates(f, k int) {
	if !e.aggPending {
		return
	}
	e.aggPending = false
	if len(e.aggBits) != k {
		e.aggBits = make([]byte, k)
	}
	pipeline.ForEach(len(e.beamAgg), func(b int) {
		for _, pb := range e.beamAgg[b] {
			n := pb.granted
			if n == 0 {
				continue
			}
			pb.granted = 0
			pkt := switchfab.Packet{Bits: e.aggBits, Class: pb.ps.def.Class, Term: pb, Ingress: f}
			for i := 0; i < n; i++ {
				if e.fab.RoutePacket(b, pkt) {
					pb.routed++
				} else {
					pb.dropped++
				}
			}
		}
	})
}

// synthesize modulates the frame's burst time plan into the MF-TDMA
// frame composer, one task per granted cell: encode, pad, modulate
// straight into the cell's slot, apply the terminal's channel. It
// leaves the composer and the assignment/meta slices of e.plan ready
// for receive.
func (e *Engine) synthesize(pf *framePrep, cells []uplinkCell) {
	f, k, codec, budget := pf.f, pf.k, pf.codec, pf.budget
	if e.fc == nil {
		e.fc = modem.NewFrameComposer(e.cfg.Frame, 4)
	} else {
		e.fc.Reset()
	}
	fc := e.fc
	if cap(e.plan.asgs) < len(cells) {
		e.plan.asgs = make([]modem.SlotAssignment, len(cells))
	}
	asgs := e.plan.asgs[:len(cells)]
	noisy := e.cfg.EbN0dB > 0
	esN0 := 0.0
	if noisy {
		esN0 = e.cfg.EbN0dB + 10*math.Log10(2*codec.Rate())
	}
	const uplinkSPS = 4
	metas := e.plan.metas[:0]
	for _, c := range cells {
		metas = append(metas, payload.RouteMeta{
			Beam:     c.term.term.Beam,
			Class:    c.term.term.Class,
			Term:     c.term,
			Ingress:  f,
			InfoBits: k,
		})
	}
	e.plan.metas = metas
	pipeline.ForEach(len(cells), func(i int) {
		c := cells[i]
		asgs[i] = c.asg
		// Encode into pooled scratch, zero-padded to the burst budget
		// (and truncated to it, matching the old copy-into-fresh-buffer
		// semantics when a codec overshoots).
		pb := e.encBufs.Get().(*[]byte)
		padded := fec.AppendEncode(codec, (*pb)[:0], c.info)
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
		mod := e.mods.Get().(*modem.BurstModulator)
		var wave dsp.Vec
		slotDirect := mod.WaveformLen() <= fc.Config().SlotSymbols*uplinkSPS
		if slotDirect {
			wave = mod.ModulateInto(fc.SlotWaveform(c.asg), padded)
		} else {
			wave = mod.Modulate(padded)
		}
		e.mods.Put(mod)
		*pb = padded
		e.encBufs.Put(pb)
		prof := c.term.term.Channel
		if noisy || prof != nil {
			cellEsN0 := esN0
			if prof != nil && prof.EsN0dB != 0 {
				cellEsN0 = prof.EsN0dB
			} else if !noisy {
				cellEsN0 = 300 // effectively noiseless
			}
			ch := e.chans.Get().(*dsp.Channel)
			ch.Reseed(e.cfg.Seed + int64(f)*100003 + int64(i))
			ch.EsN0dB = cellEsN0
			ch.SPS = uplinkSPS
			ch.PhaseOffset = 0
			ch.FreqOffset = 0
			ch.FreqDrift = 0
			ch.TimingOffset = 0
			ch.Gain = 1
			if prof != nil {
				// Frequency figures are per symbol and the channel works
				// per sample, so CFO/Drift divide by the oversampling;
				// Timing is already a sample offset and passes through.
				// Drift ramps from the frame the profile was installed
				// (0 for a boot-time population, so PR 3 runs are
				// unchanged).
				ch.FreqOffset = (prof.CFO + prof.Drift*float64(f-c.term.profSince)) / uplinkSPS
				ch.PhaseOffset = prof.Phase
				ch.TimingOffset = prof.Timing
				if prof.Gain != 0 {
					ch.Gain = prof.Gain
				}
			}
			ch.ApplyInPlace(wave)
			e.chans.Put(ch)
		}
		if !slotDirect {
			fc.PlaceBurst(c.asg, wave)
		}
	})
}

// receive passes the synthesized frame through the payload's concurrent
// receive pipeline and accounts the receipts; decoded packets enter the
// switching fabric's bounded class queues directly (typed with class,
// terminal and ingress frame), so there is no second engine-owned queue
// layer to copy into.
func (e *Engine) receive(pf *framePrep, cells []uplinkCell) {
	k := pf.k
	receipts := e.pl.ReceiveFrameAndRouteQoS(e.fc, e.plan.asgs[:len(cells)], e.plan.metas)
	for i, r := range receipts {
		e.met.UplinkBursts++
		// Only receipts whose demodulation actually ran carry sync
		// diagnostics; a burst lost to a service outage would otherwise
		// pin the terminal's worst-UW stat to zero.
		if r.Sync.Scanned {
			sa := &cells[i].term.sync
			sa.bursts++
			af := math.Abs(r.Sync.FreqEst)
			sa.freqAbsSum += af
			if af > sa.freqAbsMax {
				sa.freqAbsMax = af
			}
			if sa.bursts == 1 || r.Sync.UWMetric < sa.uwMin {
				sa.uwMin = r.Sync.UWMetric
			}
		}
		if r.Err != nil {
			e.met.UplinkFailures++
			continue
		}
		e.met.UplinkBitErrs += fec.CountBitErrors(cells[i].info, r.Bits[:k])
		cells[i].term.stat.UplinkBits += k
		// Queue-full tail drops happened inside the fabric, per class;
		// Report folds its counters in.
	}
}

// fillFrame is the ownership handoff at the fabric boundary: the
// downlink scheduler pops queued packets into this frame's transmit
// grid generation — one pipeline task per beam over beam-owned state
// (the beam's fabric shard, grid row, sent slice and beamState
// accumulators) — and the per-frame deltas merge into the run totals in
// beam order, bit-identical to a sequential fill. It runs on the
// control thread between ingest and egress dispatch: the fill is the
// one downlink-side stage that must not overlap the next frame's
// ingest, because backpressure admission (dama) reads the post-fill
// queue depths. After fillFrame returns, every report counter of the
// frame except the deferred ground-verify outcome is final — that is
// the snapshot the per-frame observers read.
func (e *Engine) fillFrame(pf *framePrep) {
	t := e.clock()
	g := pf.gen
	e.fill = *pf
	pipeline.ForEach(e.cfg.Frame.Carriers, func(b int) {
		bs := &e.beams[b]
		bs.slot = 0
		bs.sent = bs.sent[:0]
		bs.cls = [switchfab.NumClasses]clsAccum{}
		for s := range g.grid[b] {
			g.grid[b][s] = nil
		}
		e.fab.Schedule(e.dlsched, b, e.cfg.Frame.Slots, bs.emit)
	})
	g.sent = g.sent[:0]
	for b := range e.beams {
		bs := &e.beams[b]
		g.sent = append(g.sent, bs.sent...)
		for c := range bs.cls {
			a := bs.cls[c]
			if a == (clsAccum{}) {
				continue
			}
			cls := &e.cls[c]
			cls.delivered += a.delivered
			cls.bits += a.bits
			cls.reencode += a.reencode
			cls.latSum += a.latSum
			if a.latMax > cls.latMax {
				cls.latMax = a.latMax
			}
			e.met.DeliveredPackets += a.delivered
			e.met.DeliveredBits += a.bits
			e.met.DroppedReencode += a.reencode
			e.latSum += a.latSum
			if a.latMax > e.met.LatencyMax {
				e.met.LatencyMax = a.latMax
			}
		}
	}
	e.lap(StageSchedule, t)
}

// egress is the frame's second half-stage — wideband transmit of the
// filled grid generation and the optional ground verify. It reads only
// the framePrep, its egress generation, the transmitter's own buffers
// and the concurrency-safe demod pools, and writes nothing the control
// thread shares, so it may run on the egress worker while the control
// thread ingests the next frame; the verify outcome comes back as a
// delta for the caller to fold (foldVerify) rather than racing the
// shared report.
func (e *Engine) egress(pf *framePrep) (egressDelta, error) {
	t := e.clock()
	wide, err := e.tx.TransmitFrameGrid(e.cfg.Frame, pf.gen.grid)
	if err != nil {
		return egressDelta{}, fmt.Errorf("traffic: frame %d downlink: %w", pf.f, err)
	}
	t = e.lap(StageTransmit, t)
	var d egressDelta
	if e.cfg.Verify {
		d = e.verify(wide, pf.codec, pf.gen)
		e.lap(StageVerify, t)
	}
	dsp.PutVec(wide)
	return d, nil
}

// emitPacket is one beam's emit hook (preallocated per beamState at
// construction, so the per-frame fill path does not close over loop
// state): it places a scheduled packet into the beam's next transmit
// grid cell and accounts delivery and latency into the beam-owned
// accumulators, or discards a packet whose codeword no longer fits a
// burst after a codec swap (no slot used). Aggregate (popBeam) packets
// consume their downlink slot — real capacity spent on the untraced
// remainder — but synthesize no waveform: the grid cell stays idle, so
// DSP and ground-verify cost stays proportional to tracer traffic.
func (e *Engine) emitPacket(bs *beamState, p switchfab.Packet) bool {
	if e.fill.codec.EncodedLen(len(p.Bits)) > e.fill.budget {
		bs.cls[p.Class].reencode++
		return false
	}
	b, s := bs.beam, bs.slot
	lat := e.fill.f - p.Ingress
	if pb, ok := p.Term.(*popBeam); ok {
		pb.delivered++
		pb.bits += len(p.Bits)
		pb.latSum += lat
		if lat > pb.latMax {
			pb.latMax = lat
		}
	} else {
		e.fill.gen.grid[b][s] = p.Bits
		bs.sent = append(bs.sent, sentCell{pkt: p, cell: modem.SlotAssignment{Carrier: b, Slot: s}})
		if ts, ok := p.Term.(*termState); ok {
			ts.stat.DeliveredBits += len(p.Bits)
		}
	}
	bs.slot++

	cls := &bs.cls[p.Class]
	cls.delivered++
	cls.bits += len(p.Bits)
	cls.latSum += lat
	if lat > cls.latMax {
		cls.latMax = lat
	}
	return true
}

// verifySlack is how far past its slot a verified burst's window runs
// (carrier-rate samples): room for the DUC/DDC group delays.
const verifySlack = 160

// verifyRun is one stretch of a carrier the ground receiver
// down-converts: the windows of consecutive sent slots, merged.
type verifyRun struct {
	carrier, lo, hi int     // carrier-rate samples lo..hi-1 of the frame
	base            dsp.Vec // the down-converted stretch (pooled)
}

// verifyOutcome is one sent burst's verdict.
type verifyOutcome struct {
	lost    bool
	bitErrs int
}

// verifyScratch is verify's per-frame state, owned by the engine so a
// frame allocates neither the slices nor the two worker closures. Only
// one egress is ever in flight, so one copy serves every frame.
type verifyScratch struct {
	runs  []verifyRun
	runOf []int // sent burst -> index of the run holding its window
	outs  []verifyOutcome

	downconvert, check func(int)
	// per-call arguments of the two worker bodies
	wide    dsp.Vec
	codec   fec.Codec
	sent    []sentCell
	slotLen int
}

// verify demodulates the transmitted wideband block on a ground receiver
// (DDC bank plus burst demodulators) and compares every delivered packet
// bit for bit — the loopback contract of the regenerative loop. The
// receiver knows the burst time plan, so it down-converts only the
// carriers that carried a sent burst and only the runs of slots that
// did (Demux.ProcessWindowInto): a full grid costs what whole-carrier
// demultiplexing does, an idle one nothing. It runs inside egress
// (possibly on the egress worker), so it touches only the frame's
// generation and the egress-owned scratch and demod pools and returns
// its counters as a delta instead of writing the shared report.
func (e *Engine) verify(wide dsp.Vec, codec fec.Codec, g *egressGen) egressDelta {
	v := &e.ver
	decim := e.cfg.Plan.Decim
	v.slotLen = e.cfg.Frame.SlotSymbols * decim
	carrierLen := (len(wide) + decim - 1) / decim
	v.runs, v.runOf = v.runs[:0], v.runOf[:0]
	// g.sent is in carrier order, slots ascending within a carrier, so
	// overlapping windows are neighbours.
	for _, sc := range g.sent {
		lo := sc.cell.Slot * v.slotLen
		hi := min(lo+v.slotLen+verifySlack, carrierLen)
		if n := len(v.runs); n > 0 && v.runs[n-1].carrier == sc.cell.Carrier && lo <= v.runs[n-1].hi {
			v.runs[n-1].hi = hi
		} else {
			v.runs = append(v.runs, verifyRun{carrier: sc.cell.Carrier, lo: lo, hi: hi})
		}
		v.runOf = append(v.runOf, len(v.runs)-1)
	}
	if cap(v.outs) < len(g.sent) {
		v.outs = make([]verifyOutcome, len(g.sent))
	}
	v.outs = v.outs[:len(g.sent)]
	v.wide, v.codec, v.sent = wide, codec, g.sent
	pipeline.ForEach(len(v.runs), v.downconvert)
	pipeline.ForEach(len(g.sent), v.check)
	v.wide, v.codec, v.sent = nil, nil, nil
	var d egressDelta
	for _, o := range v.outs {
		if o.lost {
			d.lost++
		} else {
			d.bitErrs += o.bitErrs
		}
	}
	for i := range v.runs {
		dsp.PutVec(v.runs[i].base)
		v.runs[i].base = nil
	}
	return d
}

// verifyRun down-converts run i of the frame under verification.
func (e *Engine) verifyRun(i int) {
	r := &e.ver.runs[i]
	r.base = e.gdemux.ProcessWindowInto(dsp.GetVec(r.hi-r.lo), e.ver.wide, r.carrier, r.lo, r.hi)
}

// verifyBurst demodulates and decodes sent burst i out of its run and
// records the verdict.
func (e *Engine) verifyBurst(i int) {
	v := &e.ver
	sc := v.sent[i]
	r := &v.runs[v.runOf[i]]
	start := sc.cell.Slot*v.slotLen - r.lo
	end := min(start+v.slotLen+verifySlack, len(r.base))
	dem := e.gdems.Get().(*modem.BurstDemodulator)
	res := dem.Demodulate(r.base[start:end])
	e.gdems.Put(dem)
	if !res.Found {
		v.outs[i] = verifyOutcome{lost: true}
		return
	}
	// The ground receiver decodes hard decisions: slice the signs
	// into the saturated ±10 LLRs fec.HardLLR(modem.HardBits(soft))
	// would build, without the two intermediate slices.
	bits := sc.pkt.Bits
	pl := e.gllrs.Get().(*[]float64)
	llr := (*pl)[:v.codec.EncodedLen(len(bits))]
	for j, s := range res.Soft[:len(llr)] {
		llr[j] = 10
		if s < 0 {
			llr[j] = -10
		}
	}
	dec := v.codec.Decode(llr)
	e.gllrs.Put(pl)
	v.outs[i] = verifyOutcome{bitErrs: fec.CountBitErrors(bits, dec[:len(bits)])}
}

// snapshotQueues folds the fabric-side accounting into a report
// snapshot: total tail drops, per-beam high-water marks, and the
// per-class reduction of queue and delivery stats.
func (e *Engine) snapshotQueues(r *Report) {
	cc := e.fab.ClassCounters()
	dropped := 0
	r.PerClass = make([]ClassStats, switchfab.NumClasses)
	for c := 0; c < switchfab.NumClasses; c++ {
		a := e.cls[c]
		dropped += cc[c].Dropped
		cs := ClassStats{
			Class:            switchfab.Class(c).String(),
			RoutedPackets:    cc[c].Routed,
			DroppedQueue:     cc[c].Dropped,
			DroppedReencode:  a.reencode,
			DeliveredPackets: a.delivered,
			DeliveredBits:    a.bits,
			HighWater:        cc[c].HighWater,
			LatencySum:       a.latSum,
			LatencyMax:       a.latMax,
		}
		if a.delivered > 0 {
			cs.LatencyMean = float64(a.latSum) / float64(a.delivered)
		}
		r.PerClass[c] = cs
	}
	r.DroppedQueue = dropped
	r.QueueHighWater = make([]int, e.cfg.Frame.Carriers)
	for b := range r.QueueHighWater {
		r.QueueHighWater[b] = e.fab.HighWater(b)
	}
}

// snapshotPops reduces the per-(population, beam) block accounting to
// one PopulationStats row per population: the request-side counters
// accumulated in dama plus the routing/delivery counters the per-beam
// tasks own, merged in beam order. Rows cover the aggregate remainder
// only; tracer terminals report individually in PerTerminal.
func (e *Engine) snapshotPops(r *Report) {
	if len(e.pops) == 0 {
		return
	}
	r.PerPopulation = make([]PopulationStats, len(e.pops))
	for i, ps := range e.pops {
		st := ps.stat
		for j := range ps.beams {
			pb := &ps.beams[j]
			st.RoutedPackets += pb.routed
			st.DroppedQueue += pb.dropped
			st.DeliveredPackets += pb.delivered
			st.DeliveredBits += pb.bits
			st.LatencySum += pb.latSum
			if pb.latMax > st.LatencyMax {
				st.LatencyMax = pb.latMax
			}
		}
		if st.DeliveredPackets > 0 {
			st.LatencyMean = float64(st.LatencySum) / float64(st.DeliveredPackets)
		}
		r.PerPopulation[i] = st
	}
}

// Report snapshots the run metrics, including the per-terminal
// reduction. Departed terminals keep their row (in join order).
func (e *Engine) Report() *Report {
	r := e.met
	r.Verified = e.cfg.Verify
	r.WallSeconds = e.wall.Seconds()
	r.ModelSeconds = float64(e.met.Frames) * FrameSeconds(e.cfg.Frame)
	r.LatencySum = e.latSum
	if r.DeliveredPackets > 0 {
		r.LatencyMean = float64(e.latSum) / float64(r.DeliveredPackets)
	}
	e.snapshotQueues(&r)
	e.snapshotPops(&r)
	r.PerTerminal = make([]TerminalStats, len(e.terms))
	for i, tsrc := range e.terms {
		st := tsrc.stat
		sa := tsrc.sync
		st.SyncBursts = sa.bursts
		if sa.bursts > 0 {
			st.MeanAbsCFO = sa.freqAbsSum / float64(sa.bursts)
			st.MaxAbsCFO = sa.freqAbsMax
			st.MinUWMetric = sa.uwMin
		}
		r.PerTerminal[i] = st
	}
	return &r
}
