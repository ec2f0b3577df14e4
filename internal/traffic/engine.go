package traffic

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/payload"
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
	// queues; nil selects switchfab.FIFO (arrival order).
	Scheduler switchfab.Scheduler
	// EbN0dB applies AWGN to every uplink burst at the given Eb/N0; zero
	// leaves the uplink noiseless (Spec.Validate rejects a negative one).
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
	return frontend.CarrierPlan{Carriers: carriers, Spacing: min(0.8/float64(carriers), 0.2), Decim: 4}
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

// framePrep is the per-frame plan handed from beginFrame through
// ingest, fill and egress: the frame index, the codec in force, the
// burst's coded-bit budget and the info-bit count that fits it, all
// resolved once in the frame prologue. Egress reads its own copy
// (Engine.out), so it never re-reads engine fields the next frame's
// prologue may rewrite.
type framePrep struct {
	f      int
	k      int
	budget int
	codec  fec.Codec
	t0     time.Time
}

// egressDelta is the ground-verify outcome of one frame's egress,
// returned instead of written to the shared report so a concurrent
// ingest never races the verify counters; join folds it.
type egressDelta struct {
	lost    int
	bitErrs int
}

// egressOutcome is what a frame's egress hands back at the join:
// the verify delta to fold, the egress wall time (for the overlap/stall
// split) and the transmit error, if any.
type egressOutcome struct {
	d   egressDelta
	dur time.Duration
	err error
}

// delivery accumulates the packets put on the downlink and their
// queueing latency in frames — the one form of the figures the run, each
// class and each population report.
type delivery struct {
	packets, bits, latSum, latMax int
}

func (d *delivery) add(bits, lat int) {
	d.merge(delivery{packets: 1, bits: bits, latSum: lat, latMax: lat})
}

func (d *delivery) merge(o delivery) {
	d.packets += o.packets
	d.bits += o.bits
	d.latSum += o.latSum
	d.latMax = max(d.latMax, o.latMax)
}

func (d delivery) mean() float64 { return ratio(float64(d.latSum), float64(d.packets)) }

// ratio is n/d, or 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// Engine drives the closed regenerative loop frame after frame. The
// payload's fabric is the single downlink queue: uplink receipts enter
// it as typed packets (class, terminal, ingress frame) and the downlink
// scheduler pops them straight into the transmit grid.
type Engine struct {
	pl  *payload.Payload
	tx  *payload.Transmitter
	fab *switchfab.Fabric
	cfg Config // as in force: Plan and Scheduler resolved, mutators applied

	// The roles around the payload: dama and uplink run on the control
	// thread (ingest), ground inside egress.
	dama   *damaController
	uplink *uplinkSynth
	ground *groundReceiver // nil unless cfg.Verify

	// grids[f&1] is frame f's downlink record, which the transmitter and
	// the ground verify read: grid[beam][slot] holds a burst's info bits,
	// nil in an idle or aggregate cell. Picked by parity, so the fill of
	// frame N+1 never rewrites what frame N's egress reads (DESIGN §12).
	// A busy cell's bits are copied into cells, storage kept across
	// frames: the fabric rewrites a popped packet's own bits.
	grids, cells [2][][][]byte
	// fill, beam and slot are emitPacket's context while the downlink
	// scheduler runs (the frame being filled, the next free cell); emit
	// is emitPacket bound once, so a fill allocates no closure.
	fill       framePrep
	beam, slot int
	emit       func(switchfab.Packet) bool

	met      Report // the counters ingest and join write; Report adds the rest
	cls      [switchfab.NumClasses]delivery
	reencode [switchfab.NumClasses]int
	wall     time.Duration

	// stages, when attached, receives one per-stage duration sample per
	// frame (see StageTimers). Nil means the untimed hot path: no
	// per-stage clock reads at all (clock).
	stages *StageTimers

	// Cross-frame overlap (DESIGN §12). out is the in-flight egress's
	// frame, written by the control thread only before it starts
	// egressBody (egress bound once: a start allocates no closure); done
	// carries the outcome (one slot, so egress never waits on the join);
	// inflight marks a dispatched egress not yet joined; err is the
	// sticky failure of an egress, returned by every later Step/Drain.
	out        framePrep
	egressBody func()
	done       chan egressOutcome
	inflight   bool
	err        error
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
		pl:     pl,
		tx:     payload.NewTransmitter(pl, plan),
		fab:    pl.Switch(),
		cfg:    cfg,
		dama:   newDAMAController(cfg, pl.Switch()),
		uplink: newUplinkSynth(cfg, pl.BurstFormat()),
		done:   make(chan egressOutcome, 1),
	}
	e.emit, e.egressBody = e.emitPacket, e.egress
	// The engine is the fabric's exclusive driver for the run: adopting
	// it clears any previous driver's queues and counters and installs
	// the per-(beam, class) bound (see the switchfab ownership rule).
	e.fab.Adopt(cfg.QueueDepth)
	for _, t := range terminals {
		if err := e.dama.admit(t, 0); err != nil {
			return nil, err
		}
	}
	if err := e.dama.adoptPopulations(pops); err != nil {
		return nil, err
	}
	e.resolveSyncConfig()
	for gi := range e.grids {
		e.grids[gi], e.cells[gi] = make([][][]byte, cfg.Frame.Carriers), make([][][]byte, cfg.Frame.Carriers)
		for c := range e.grids[gi] {
			e.grids[gi][c], e.cells[gi][c] = make([][]byte, cfg.Frame.Slots), make([][]byte, cfg.Frame.Slots)
		}
	}
	if cfg.Verify {
		e.ground = newGroundReceiver(cfg.Frame, plan, pl.BurstFormat())
	}
	return e, nil
}

// resolveSyncConfig sets the payload's burst synchronization chain the
// current population needs. An impaired population needs the full
// chain: feedforward CFO recovery before the UW search and residual
// phase tracking across the payload. A clean population keeps (or,
// after an impaired stretch — e.g. a fade that has cleared — restores)
// the boot default, the UW-phase-only chain, so one engine's chain
// never leaks into the next engine sharing the payload. It is called at
// construction and whenever the population's impairments change mid-run
// (join, leave, channel-profile update).
func (e *Engine) resolveSyncConfig() {
	var sc modem.SyncConfig
	if slices.ContainsFunc(e.Terminals(), func(t Terminal) bool { return t.Channel.Impaired() }) {
		// The unique-word threshold is lifted above the legacy 0.6:
		// the candidate search triples the per-slot UW scans, and a
		// pure-noise scan's best metric tails past 0.7 often enough
		// that the legacy threshold would false-lock, while true
		// locks at the coded-regime Es/N0 stay above 0.82 (see the
		// modem noise-rejection tests).
		sc = modem.SyncConfig{UWThreshold: 0.7, FreqRecovery: true, PhaseTrack: true}
	}
	e.pl.SetSyncConfig(sc)
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
	if err := e.dama.admit(t, e.met.Frames); err != nil {
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
	if err := e.dama.remove(id); err != nil {
		return err
	}
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
	ts, err := e.dama.lookup(id)
	if err != nil {
		return err
	}
	ts.term.Channel = p
	ts.profSince = e.met.Frames
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
	ts, err := e.dama.lookup(id)
	if err != nil {
		return err
	}
	ts.term.Class = c
	return nil
}

// Terminals returns the active population in join order.
func (e *Engine) Terminals() []Terminal { return e.dama.activeTerminals() }

// Config returns the engine configuration as currently in force
// (queue depth and policy may have changed since construction).
func (e *Engine) Config() Config { return e.cfg }

// Frame returns the number of frames processed so far.
func (e *Engine) Frame() int { return e.met.Frames }

// QueueDepth returns the packets currently queued for a beam across
// all classes, 0 for a beam outside the downlink (no panic: observers
// probe freely).
func (e *Engine) QueueDepth(beam int) int { return e.fab.QueueDepth(beam) }

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
// egress half-frame. The egress runs on a goroutine of its own and
// overlaps the next Step's ingest and fill, at every core count (DESIGN
// §12 gives the ownership argument); the one visible artifact is that a
// frame's ground-verify counters and egress error reach the report one
// join later — Drain catches up.
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
	e.inflight, e.out = true, pf
	go e.egressBody()
	return nil
}

// join blocks until the in-flight egress (if any) finishes, folds its
// outcome into the run — the two ground-verify counters and the sticky
// error, so a mid-run Report lags them by the one in-flight frame until
// the engine drains — and records the occupancy timers: stall is the
// time spent blocked here, overlap the rest of the egress — the part
// that ran under this frame's control-thread work.
func (e *Engine) join() {
	if !e.inflight {
		return
	}
	start := time.Now()
	out := <-e.done
	e.inflight = false
	stall := time.Since(start)
	e.met.DownlinkLost += out.d.lost
	e.met.DownlinkBitErrs += out.d.bitErrs
	e.err = out.err
	if e.stages != nil {
		e.stages[StageStall].Observe(float64(stall))
		e.stages[StageOverlap].Observe(float64(max(out.dur-stall, 0)))
	}
}

// Drain joins the in-flight frame, folds its verify delta and reports
// the engine's sticky error: a drained engine is fully caught up, owns
// no goroutine and is safe to mutate, snapshot exactly or abandon;
// stepping may resume afterwards.
func (e *Engine) Drain() error {
	e.drain()
	return e.err
}

// Close drains the engine and returns its frame-sized buffers (the
// uplink composer's and the transmitter's carrier waveforms) to the dsp
// block allocator, for the next engine built in the process. Stepping
// after Close takes buffers anew; the run goes on unchanged.
func (e *Engine) Close() error {
	err := e.Drain()
	if e.uplink.fc != nil {
		e.uplink.fc.Release()
		e.uplink.fc = nil
	}
	e.tx.Release()
	return err
}

// drain is Drain for the mutators, which leave a failed egress for the
// next Step to report.
func (e *Engine) drain() {
	start := time.Now()
	e.join()
	e.wall += time.Since(start)
}

// beginFrame is the frame prologue: it advances the frame clock, checks
// the payload can carry traffic (a mid-reconfiguration frame counts as
// an outage and runs no stage) and resolves the codec and info-bit
// budget. ok=false means the frame is already fully accounted (outage)
// and no stage must run.
func (e *Engine) beginFrame() (framePrep, bool) {
	f := e.met.Frames
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

	return framePrep{f: f, k: k, budget: budget, codec: codec, t0: e.clock()}, true
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
// engine's control thread only: it owns the DAMA controller, the uplink
// synthesizer and the fabric's route side, none of which the concurrent
// egress of the previous frame touches.
//
// When stage timers are attached, the synthesis stage spans from the
// prologue timestamp (taken before DAMA) through the modulation
// fan-out, and the receive stage covers the payload pipeline, receipt
// accounting and the aggregate routing — one observation each per
// frame. A frame with no granted waveform cell skips the two fan-outs
// and nothing else, so per-stage sample counts line up with the frame
// count.
func (e *Engine) ingest(pf *framePrep) {
	plan := e.dama.grant(pf.f, pf.k, e.cfg.Policy, e.cfg.QueueDepth, &e.met)
	var fc *modem.FrameComposer
	if len(plan.cells) > 0 {
		fc = e.uplink.synthesize(pf, plan)
	}
	tRecv := e.lap(StageSynthesis, pf.t0)
	if fc != nil {
		// Decoded packets enter the fabric's bounded class queues typed
		// with class, terminal and ingress frame.
		e.dama.account(e.pl.ReceiveFrameAndRouteQoS(fc, plan.asgs, plan.metas), pf.k, &e.met)
	}
	e.dama.routeAggregates(pf.f, pf.k)
	e.lap(StageReceive, tRecv)
}

// fillFrame is the ownership handoff at the fabric boundary: the
// downlink scheduler pops queued packets into this frame's transmit
// grid, beam by beam. It runs on the control thread between ingest and
// egress dispatch: the fill is the one downlink-side stage that must
// not overlap the next frame's ingest, because backpressure admission
// (grant) reads the post-fill queue depths. After fillFrame returns,
// every report counter of the frame except the deferred ground-verify
// outcome is final — that is the snapshot the per-frame observers read.
func (e *Engine) fillFrame(pf *framePrep) {
	t := e.clock()
	e.fill = *pf
	for b, slots := range e.grids[pf.f&1] {
		clear(slots)
		e.beam, e.slot = b, 0
		e.fab.Schedule(e.cfg.Scheduler, b, e.cfg.Frame.Slots, e.emit)
	}
	e.lap(StageSchedule, t)
}

// egress is the frame's second half-stage and the egress goroutine's
// body — wideband transmit of frame e.out's grid and the optional ground
// verify. It reads only e.out, its grid, the transmitter's own buffers
// and the ground receiver, and writes nothing the control thread shares,
// so it runs while the control thread ingests the next frame; the verify
// outcome goes to join as a delta rather than racing the shared report.
func (e *Engine) egress() {
	start, pf := time.Now(), &e.out
	t := e.clock()
	grid := e.grids[pf.f&1]
	wide, err := e.tx.TransmitFrameGrid(e.cfg.Frame, grid)
	var d egressDelta
	if err != nil {
		err = fmt.Errorf("traffic: frame %d downlink: %w", pf.f, err)
	} else {
		t = e.lap(StageTransmit, t)
		if e.ground != nil {
			d = e.ground.verify(wide, pf.codec, grid)
			e.lap(StageVerify, t)
		}
		dsp.PutVec(wide)
	}
	e.done <- egressOutcome{d: d, dur: time.Since(start), err: err}
}

// emitPacket is the downlink scheduler's emit hook: it places a
// scheduled packet into the filling beam's next transmit grid cell and
// accounts its delivery and latency, or discards a packet whose
// codeword no longer fits a burst after a codec swap (no slot used).
// Aggregate (popState) packets consume their downlink slot — real
// capacity spent on the untraced remainder — but synthesize no
// waveform: the grid cell stays idle, so DSP and ground-verify cost
// stays proportional to tracer traffic.
func (e *Engine) emitPacket(p switchfab.Packet) bool {
	pf, bits := &e.fill, len(p.Bits)
	if pf.codec.EncodedLen(bits) > pf.budget {
		e.reencode[p.Class]++
		return false
	}
	lat := pf.f - p.Ingress
	e.cls[p.Class].add(bits, lat)
	if ps, ok := p.Term.(*popState); ok {
		ps.dlv.add(bits, lat)
	} else {
		g := pf.f & 1
		cell := append(e.cells[g][e.beam][e.slot][:0], p.Bits...)
		e.cells[g][e.beam][e.slot], e.grids[g][e.beam][e.slot] = cell, cell
		if ts, ok := p.Term.(*termState); ok {
			ts.stat.DeliveredBits += bits
		}
	}
	e.slot++
	return true
}

// Report snapshots the run metrics: the engine's own counters, the
// fabric-side queue accounting (tail drops, high-water marks) merged
// with the delivery accounting per class, and the DAMA controller's
// per-population and per-terminal rows. Departed terminals keep their
// row (in join order).
func (e *Engine) Report() *Report {
	r := e.met
	r.Verified = e.cfg.Verify
	r.WallSeconds = e.wall.Seconds()
	r.ModelSeconds = float64(e.met.Frames) * FrameSeconds(e.cfg.Frame)
	cc := e.fab.ClassCounters()
	var total delivery
	r.PerClass = make([]ClassStats, switchfab.NumClasses)
	for c, a := range e.cls {
		total.merge(a)
		r.DroppedQueue += cc[c].Dropped
		r.DroppedReencode += e.reencode[c]
		r.PerClass[c] = ClassStats{
			Class:            switchfab.Class(c).String(),
			RoutedPackets:    cc[c].Routed,
			DroppedQueue:     cc[c].Dropped,
			DroppedReencode:  e.reencode[c],
			DeliveredPackets: a.packets,
			DeliveredBits:    a.bits,
			HighWater:        cc[c].HighWater,
			LatencySum:       a.latSum,
			LatencyMean:      a.mean(),
			LatencyMax:       a.latMax,
		}
	}
	r.DeliveredPackets, r.DeliveredBits = total.packets, total.bits
	r.LatencySum, r.LatencyMean, r.LatencyMax = total.latSum, total.mean(), total.latMax
	r.QueueHighWater = make([]int, e.cfg.Frame.Carriers)
	for b := range r.QueueHighWater {
		r.QueueHighWater[b] = e.fab.HighWater(b)
	}
	r.PerPopulation = e.dama.populationRows()
	r.PerTerminal = e.dama.terminalRows()
	return &r
}
