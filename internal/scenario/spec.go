// Package scenario is the declarative runtime over the closed
// regenerative loop: a JSON-serializable Spec describes a complete run
// (system configuration, MF-TDMA traffic shape, terminal population
// with per-terminal channel profiles, and a frame-indexed event
// script), Validate rejects inconsistent specs with precise errors
// before anything is built, a registry of named presets covers the
// recurring study shapes, and Session executes a Spec frame by frame
// with observer hooks, context cancellation and scripted events applied
// at frame boundaries — decoder swaps and waveform migrations through
// the live control plane, channel-profile changes (Doppler/fade ramps),
// terminal joins/leaves, and queue reconfiguration. What used to be a
// bespoke harness per experiment (E11's mid-run swap, E12's impairment
// sweep) is a ~20-line script over this package.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/modem"
	"repro/internal/payload"
	"repro/internal/switchfab"
	"repro/internal/traffic"
)

// MaxAbsCFO is the validation bound on a terminal's effective carrier
// frequency offset (CFO plus accumulated Doppler drift, cycles/symbol)
// at any frame of the run. The fourth-power feedforward estimator is
// unambiguous within ±1/8 cycle/symbol; beyond it only the unique-word
// candidate search can save a burst, so specs that depend on it are
// rejected rather than run into alias territory (DESIGN.md §4).
const MaxAbsCFO = 0.125

// MinInfoBits is the smallest codeword the engine ever forms
// (traffic.InfoBitsFor starts at 16 info bits); a burst budget that
// cannot carry it makes every frame undecodable.
const MinInfoBits = 16

// Spec is one complete declarative scenario: everything a run needs,
// JSON round-trippable, validated before execution.
type Spec struct {
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Frames is the scripted run length Session.Run executes. Events
	// beyond it never fire under Run (callers driving Step directly may
	// still reach them).
	Frames    int            `json:"frames"`
	System    SystemSpec     `json:"system"`
	Traffic   TrafficSpec    `json:"traffic"`
	Terminals []TerminalSpec `json:"terminals"`
	Events    []Event        `json:"events,omitempty"`
}

// SystemSpec sizes the payload under the run.
type SystemSpec struct {
	// Carriers is the payload carrier count; 0 means the traffic
	// frame's carrier count.
	Carriers int `json:"carriers,omitempty"`
	// Codec is the DECOD design installed at session start (e.g.
	// "conv-r1/2-k9", "turbo-r1/3"). Required for specs that boot their
	// own payload; optional when attaching to a pre-configured one.
	Codec string `json:"codec"`
	// PayloadSymbols sizes TDMA burst payloads; 0 keeps the payload
	// default (200 symbols).
	PayloadSymbols int `json:"payload_symbols,omitempty"`
}

// TrafficSpec is the JSON-friendly mirror of traffic.Config on the
// default carrier plan.
type TrafficSpec struct {
	Carriers     int     `json:"carriers"`
	Slots        int     `json:"slots"`
	SlotSymbols  int     `json:"slot_symbols"`
	GuardSymbols int     `json:"guard_symbols"`
	QueueDepth   int     `json:"queue_depth"`
	Policy       string  `json:"policy,omitempty"` // "drop-tail" (default) or "backpressure"
	EbN0dB       float64 `json:"ebn0_db,omitempty"`
	Verify       bool    `json:"verify,omitempty"`
	Seed         int64   `json:"seed"`
	// Scheduler selects the downlink scheduler over the switching
	// fabric's class queues; nil is FIFO (arrival order).
	Scheduler *SchedulerSpec `json:"scheduler,omitempty"`
}

// SchedulerSpec is the declarative downlink scheduler: Kind selects
// fifo (default), strict (priority with an optional best-effort floor)
// or drr (deficit round robin over the classes with per-class weights
// in slots per round).
type SchedulerSpec struct {
	Kind string `json:"kind"`
	// BEFloor reserves slots per beam per frame for best effort under
	// strict priority (bounds EF starvation of BE).
	BEFloor int `json:"be_floor,omitempty"`
	// WeightEF/WeightAF/WeightBE are the DRR class weights; all must be
	// non-negative with at least one positive.
	WeightEF int `json:"weight_ef,omitempty"`
	WeightAF int `json:"weight_af,omitempty"`
	WeightBE int `json:"weight_be,omitempty"`
}

// Build resolves the declarative scheduler to its fabric
// implementation; nil builds the FIFO default.
func (s *SchedulerSpec) Build() (switchfab.Scheduler, error) {
	if s == nil {
		return switchfab.FIFO{}, nil
	}
	switch s.Kind {
	case "", "fifo":
		if s.BEFloor != 0 || s.WeightEF != 0 || s.WeightAF != 0 || s.WeightBE != 0 {
			return nil, fmt.Errorf("scenario: fifo scheduler takes no floor or weights")
		}
		return switchfab.FIFO{}, nil
	case "strict":
		if s.BEFloor < 0 {
			return nil, fmt.Errorf("scenario: negative BE floor %d", s.BEFloor)
		}
		return switchfab.StrictPriority{BEFloor: s.BEFloor}, nil
	case "drr":
		d, err := switchfab.NewDRR(s.WeightEF, s.WeightAF, s.WeightBE)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		return d, nil
	default:
		return nil, fmt.Errorf("scenario: unknown scheduler %q (fifo, strict or drr)", s.Kind)
	}
}

// ModelSpec is a declarative traffic model; Kind selects cbr, onoff,
// hotspot or (for population entries only) bernoulli, the remaining
// fields parameterize it (unused ones stay 0).
type ModelSpec struct {
	Kind   string `json:"kind"`
	Cells  int    `json:"cells,omitempty"`
	On     int    `json:"on,omitempty"`
	Off    int    `json:"off,omitempty"`
	Phase  int    `json:"phase,omitempty"`
	Base   int    `json:"base,omitempty"`
	Surge  int    `json:"surge,omitempty"`
	Period int    `json:"period,omitempty"`
	Width  int    `json:"width,omitempty"`
	// Prob is the per-member per-frame request probability of the
	// bernoulli population model (0 < prob <= 1).
	Prob float64 `json:"prob,omitempty"`
}

// TerminalSpec is one terminal — or, when Count is positive, one
// aggregate population — of the spec. Class is the traffic class its
// packets carry through the switching fabric ("be" — the default —
// "af" or "ef").
//
// A population entry models Count members under the two-tier engine:
// Tracers of them (member indices spread evenly across the count) run
// as full per-terminal sources named "<id>.<member>", the remainder
// rides the model's aggregate form. Beams homes the members across
// several downlink beams by contiguous blocks; empty means [Beam]. A
// population with Count == Tracers is bit-identical to writing the
// members out as plain terminals.
type TerminalSpec struct {
	ID      string                  `json:"id"`
	Beam    int                     `json:"beam"`
	Class   string                  `json:"class,omitempty"`
	Model   ModelSpec               `json:"model"`
	Channel *traffic.ChannelProfile `json:"channel,omitempty"`
	Count   int                     `json:"count,omitempty"`
	Tracers int                     `json:"tracers,omitempty"`
	Beams   []int                   `json:"beams,omitempty"`
}

// Event actions. Events execute at the boundary before their frame runs.
const (
	// ActionSwapDecoder installs Event.Codec on the DECOD devices —
	// through the live control plane when the session has one (ground
	// upload + COPS policy + five-step reload), directly otherwise.
	ActionSwapDecoder = "swap-decoder"
	// ActionMigrateWaveform installs Event.Waveform ("tdma" or "cdma")
	// on the DEMOD devices, same control-plane rule.
	ActionMigrateWaveform = "migrate-waveform"
	// ActionSetChannel replaces Event.Terminal's channel profile with
	// Event.Channel (nil clears it) — fades, Doppler ramps, recoveries.
	ActionSetChannel = "set-channel"
	// ActionJoin admits Event.Join to the live population.
	ActionJoin = "join"
	// ActionLeave departs Event.Terminal.
	ActionLeave = "leave"
	// ActionSetQueue applies Event.QueueDepth (if positive) and
	// Event.Policy (if non-empty) to the downlink queues.
	ActionSetQueue = "set-queue"
	// ActionSetScheduler swaps the downlink scheduler to
	// Event.Scheduler — queued packets stay queued, only the drain
	// order and shares change.
	ActionSetScheduler = "set-scheduler"
	// ActionSetClass reassigns Event.Terminal's traffic class to
	// Event.Class; packets already queued keep their marking.
	ActionSetClass = "set-class"
)

// Event is one scripted action, applied at the boundary before frame
// Frame runs (frame numbers are absolute, 0-based).
type Event struct {
	Frame      int                     `json:"frame"`
	Action     string                  `json:"action"`
	Codec      string                  `json:"codec,omitempty"`
	Waveform   string                  `json:"waveform,omitempty"`
	Terminal   string                  `json:"terminal,omitempty"`
	Join       *TerminalSpec           `json:"join,omitempty"`
	Channel    *traffic.ChannelProfile `json:"channel,omitempty"`
	QueueDepth int                     `json:"queue_depth,omitempty"`
	Policy     string                  `json:"policy,omitempty"`
	Scheduler  *SchedulerSpec          `json:"scheduler,omitempty"`
	Class      string                  `json:"class,omitempty"`
}

// Load reads and validates a Spec from JSON. Unknown fields and
// trailing content after the document are rejected — a typoed key or a
// botched merge in a scenario file should fail loudly, not silently
// fall back to a default.
func Load(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("scenario: parse: trailing content after the spec document")
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// LoadFile reads and validates a Spec from a JSON file.
func LoadFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	sp, err := Load(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// ParsePolicy maps the spec-level policy name to the engine constant.
func ParsePolicy(s string) (traffic.DropPolicy, error) {
	switch s {
	case "", "drop-tail":
		return traffic.DropTail, nil
	case "backpressure":
		return traffic.Backpressure, nil
	default:
		return 0, fmt.Errorf("scenario: unknown queue policy %q (drop-tail or backpressure)", s)
	}
}

// ParseWaveform maps the spec-level waveform name to the payload mode.
func ParseWaveform(s string) (payload.WaveformMode, error) {
	switch s {
	case "tdma":
		return payload.ModeTDMA, nil
	case "cdma":
		return payload.ModeCDMA, nil
	default:
		return payload.ModeNone, fmt.Errorf("scenario: unknown waveform %q (tdma or cdma)", s)
	}
}

// FrameConfig resolves the MF-TDMA frame shape.
func (ts TrafficSpec) FrameConfig() modem.FrameConfig {
	return modem.FrameConfig{
		Carriers:     ts.Carriers,
		Slots:        ts.Slots,
		SlotSymbols:  ts.SlotSymbols,
		GuardSymbols: ts.GuardSymbols,
	}
}

// TrafficConfig resolves the spec's traffic shape to an engine
// configuration on the default carrier plan.
func (sp Spec) TrafficConfig() (traffic.Config, error) {
	pol, err := ParsePolicy(sp.Traffic.Policy)
	if err != nil {
		return traffic.Config{}, err
	}
	sched, err := sp.Traffic.Scheduler.Build()
	if err != nil {
		return traffic.Config{}, err
	}
	return traffic.Config{
		Frame:      sp.Traffic.FrameConfig(),
		QueueDepth: sp.Traffic.QueueDepth,
		Policy:     pol,
		Scheduler:  sched,
		EbN0dB:     sp.Traffic.EbN0dB,
		Verify:     sp.Traffic.Verify,
		Seed:       sp.Traffic.Seed,
	}, nil
}

// Build resolves a declarative model to its engine implementation in
// the aggregate form a population runs; a plain terminal runs its
// Member(0). seed drives the RNG-backed bernoulli model (the analytic
// ones ignore it).
func (m ModelSpec) Build(seed int64) (traffic.AggregateModel, error) {
	switch m.Kind {
	case "cbr":
		return traffic.CBR{Cells: m.Cells}, nil
	case "onoff":
		return traffic.OnOff{On: m.On, Off: m.Off, Cells: m.Cells, Phase: m.Phase}, nil
	case "hotspot":
		return traffic.Hotspot{Base: m.Base, Surge: m.Surge, Period: m.Period, Width: m.Width}, nil
	case "bernoulli":
		if m.Prob <= 0 || m.Prob > 1 {
			return nil, fmt.Errorf("scenario: bernoulli prob %.3f outside (0, 1]", m.Prob)
		}
		cells := m.Cells
		if cells == 0 {
			cells = 1
		}
		return traffic.AggregateBernoulli{P: m.Prob, Cells: cells, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown traffic model %q (cbr, onoff, hotspot or bernoulli)", m.Kind)
	}
}

// Terminal resolves a terminal spec to the engine terminal.
func (t TerminalSpec) Terminal() (traffic.Terminal, error) {
	_, term, err := t.resolve(0)
	return term, err
}

// resolve is what a plain terminal and a population entry share: the
// model in its aggregate form (a population's seeded from the traffic
// seed and its ID, so sibling populations draw independently) and the
// engine terminal of a plain entry, running the model's Member(0) with
// the entry's class and channel profile. A population's tracers are
// that terminal re-addressed to their members.
func (t TerminalSpec) resolve(seed int64) (traffic.AggregateModel, traffic.Terminal, error) {
	what := "terminal"
	if t.Count > 0 {
		what, seed = "population", popSeed(seed, t.ID)
	}
	fail := func(err error) (traffic.AggregateModel, traffic.Terminal, error) {
		return nil, traffic.Terminal{}, fmt.Errorf("scenario: %s %q: %w", what, t.ID, err)
	}
	if t.Count <= 0 && t.Model.Kind == "bernoulli" {
		return fail(errors.New("bernoulli is a population model (needs count > 0)"))
	}
	m, err := t.Model.Build(seed)
	if err != nil {
		return fail(err)
	}
	cls, err := switchfab.ParseClass(t.Class)
	if err != nil {
		return fail(err)
	}
	return m, traffic.Terminal{ID: t.ID, Beam: t.Beam, Class: cls, Model: m.Member(0), Channel: clonePtr(t.Channel)}, nil
}

// Populations resolves the spec's terminal list under the two-tier
// model: plain entries become engine terminals, population entries
// (Count > 0) become one traffic.Population each plus their tracer
// terminals, spliced into the terminal list in spec order — the order
// is part of the engine's deterministic seeding contract, so a
// Count == Tracers population reproduces the plain-terminal run
// bit for bit.
func (sp Spec) Populations() ([]traffic.Terminal, []traffic.Population, error) {
	var terms []traffic.Terminal
	var pops []traffic.Population
	for _, t := range sp.Terminals {
		if t.Count <= 0 {
			term, err := t.Terminal()
			if err != nil {
				return nil, nil, err
			}
			terms = append(terms, term)
			continue
		}
		tracers, pop, err := t.population(sp.Traffic.Seed)
		if err != nil {
			return nil, nil, err
		}
		terms = append(terms, tracers...)
		pops = append(pops, pop)
	}
	return terms, pops, nil
}

// tracerMember returns the member index of tracer i of a count-member
// population with n tracers: evenly spread, strictly increasing, and
// the identity when n == count (everyone traced).
func tracerMember(i, n, count int) int { return i * count / n }

// TracerIDs lists the terminal IDs a population entry's tracers carry
// ("<id>.<member>") — what event scripts address and reports show.
func (t TerminalSpec) TracerIDs() []string {
	if t.Count <= 0 || t.Tracers <= 0 {
		return nil
	}
	out := make([]string, t.Tracers)
	for i := range out {
		out[i] = fmt.Sprintf("%s.%d", t.ID, tracerMember(i, t.Tracers, t.Count))
	}
	return out
}

// population resolves one population entry: the tracer terminals and
// the engine Population tying them to the aggregate model.
func (t TerminalSpec) population(seed int64) ([]traffic.Terminal, traffic.Population, error) {
	if t.Tracers < 0 || t.Tracers > t.Count {
		return nil, traffic.Population{}, fmt.Errorf("scenario: population %q traces %d of %d members", t.ID, t.Tracers, t.Count)
	}
	agg, base, err := t.resolve(seed)
	if err != nil {
		return nil, traffic.Population{}, err
	}
	beams := t.homeBeams()
	members := make([]int, t.Tracers)
	tracers := make([]traffic.Terminal, t.Tracers)
	for i := range tracers {
		m := tracerMember(i, t.Tracers, t.Count)
		members[i] = m
		tracers[i] = base
		tracers[i].ID = fmt.Sprintf("%s.%d", t.ID, m)
		tracers[i].Beam = beams[traffic.MemberBeam(m, t.Count, len(beams))]
		tracers[i].Model = agg.Member(m)
	}
	pop := traffic.Population{
		Name:          t.ID,
		Class:         base.Class,
		Beams:         beams,
		Count:         t.Count,
		Model:         agg,
		TracerMembers: members,
	}
	return tracers, pop, nil
}

// homeBeams is the beam list a population entry homes its members on:
// Beams, or [Beam] when it is empty.
func (t TerminalSpec) homeBeams() []int {
	if len(t.Beams) == 0 {
		return []int{t.Beam}
	}
	return t.Beams
}

// popSeed mixes the run seed with the population name (FNV-1a), so
// RNG-driven populations draw independent streams.
func popSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// PayloadConfig is the payload the spec needs: System.Carriers
// carriers (the traffic frame's count when 0) and bursts of
// System.PayloadSymbols symbols (the payload default when 0), every
// other field at the payload default.
func (sp Spec) PayloadConfig() payload.Config {
	cfg := payload.DefaultConfig()
	cfg.Carriers = sp.System.Carriers
	if cfg.Carriers == 0 {
		cfg.Carriers = sp.Traffic.Carriers
	}
	if n := sp.System.PayloadSymbols; n > 0 {
		cfg.TDMAPayloadSymbols = n
	}
	return cfg
}

// burstFormat returns the burst format of the spec's payload.
func (sp Spec) burstFormat() modem.BurstFormat {
	return modem.DefaultBurstFormat(sp.PayloadConfig().TDMAPayloadSymbols)
}

// Validate rejects inconsistent specs with precise errors: structural
// problems (empty population, beams out of range, unknown models or
// codecs), physical ones (codeword over the burst budget, burst over
// the slot budget, CFO walking beyond the acquisition range, timing
// offsets outside [0,1)), and script ones (events referencing terminals
// that are not in the population at that frame).
func (sp Spec) Validate() error {
	t := sp.Traffic
	if t.Carriers < 1 || t.Slots < 1 {
		return fmt.Errorf("scenario: frame needs at least one carrier and one slot (got %dx%d)", t.Carriers, t.Slots)
	}
	if t.GuardSymbols < 0 || t.SlotSymbols <= t.GuardSymbols {
		return fmt.Errorf("scenario: slot of %d symbols cannot carry %d guard symbols", t.SlotSymbols, t.GuardSymbols)
	}
	if sp.System.Carriers != 0 && sp.System.Carriers < t.Carriers {
		return fmt.Errorf("scenario: payload serves %d carriers, frame needs %d", sp.System.Carriers, t.Carriers)
	}
	if t.QueueDepth < 1 {
		return fmt.Errorf("scenario: queue depth %d, must be at least 1", t.QueueDepth)
	}
	if _, err := ParsePolicy(t.Policy); err != nil {
		return err
	}
	if !(t.EbN0dB >= 0) {
		return fmt.Errorf("scenario: ebn0_db %g, must not be negative (0 leaves the uplink noiseless)", t.EbN0dB)
	}
	if _, err := t.Scheduler.Build(); err != nil {
		return err
	}
	if sp.System.PayloadSymbols < 0 {
		return fmt.Errorf("scenario: negative payload symbols %d", sp.System.PayloadSymbols)
	}
	bf := sp.burstFormat()
	if bs := t.SlotSymbols - t.GuardSymbols; bf.TotalSymbols() > bs {
		return fmt.Errorf("scenario: burst of %d symbols over the %d-symbol slot budget", bf.TotalSymbols(), bs)
	}
	if sp.System.Codec == "" {
		return errors.New("scenario: system.codec is required")
	}
	if err := sp.checkCodec(sp.System.Codec); err != nil {
		return err
	}
	// A spec always runs on the default carrier plan.
	if s := traffic.DefaultPlan(t.Carriers).Spacing; s < traffic.BurstBandwidth {
		return fmt.Errorf("scenario: %d carriers sit %.4f cycles/sample apart on the default carrier plan, closer than the %.4f a burst occupies",
			t.Carriers, s, traffic.BurstBandwidth)
	}
	if sp.Frames < 1 {
		return fmt.Errorf("scenario: run of %d frames", sp.Frames)
	}
	if err := sp.validateTerminals(); err != nil {
		return err
	}
	return sp.validateEvents()
}

// checkCodec verifies the codec exists and its smallest codeword fits
// the burst payload budget.
func (sp Spec) checkCodec(name string) error {
	codec, err := payload.CodecForDesign(name)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	budget := sp.burstFormat().PayloadBits()
	if n := codec.EncodedLen(MinInfoBits); n > budget {
		return fmt.Errorf("scenario: codec %s codeword (%d bits at k=%d) over the %d-bit burst budget",
			name, n, MinInfoBits, budget)
	}
	return nil
}

func (sp Spec) validateTerminals() error {
	if len(sp.Terminals) == 0 {
		return errors.New("scenario: empty terminal population")
	}
	seen := make(map[string]bool, len(sp.Terminals))
	for _, term := range sp.Terminals {
		if term.ID == "" {
			return errors.New("scenario: terminal without an ID")
		}
		if seen[term.ID] {
			return fmt.Errorf("scenario: duplicate terminal %q", term.ID)
		}
		seen[term.ID] = true
		// Tracer terminals of a population entry join the engine's
		// terminal list under "<id>.<member>" IDs, so those must be
		// unique across the spec too.
		for _, tid := range term.TracerIDs() {
			if seen[tid] {
				return fmt.Errorf("scenario: duplicate terminal %q (tracer of population %q)", tid, term.ID)
			}
			seen[tid] = true
		}
		if err := sp.checkTerminal(term); err != nil {
			return err
		}
	}
	return nil
}

// checkTerminal validates one terminal spec minus ID uniqueness (which
// is timeline-dependent for joins).
func (sp Spec) checkTerminal(term TerminalSpec) error {
	if term.Count < 0 {
		return fmt.Errorf("scenario: terminal %q count %d, must not be negative", term.ID, term.Count)
	}
	if _, _, err := term.resolve(0); err != nil {
		return err
	}
	if m := term.Model; m.Kind == "onoff" && m.On+m.Off <= 0 {
		return fmt.Errorf("scenario: terminal %q on/off period %d+%d is empty", term.ID, m.On, m.Off)
	}
	if term.Count > 0 {
		// Population entry under the two-tier model.
		if term.Tracers < 0 || term.Tracers > term.Count {
			return fmt.Errorf("scenario: population %q traces %d of %d members", term.ID, term.Tracers, term.Count)
		}
		for _, b := range term.homeBeams() {
			if b < 0 || b >= sp.Traffic.Carriers {
				return fmt.Errorf("scenario: population %q beam %d outside the %d-beam downlink", term.ID, b, sp.Traffic.Carriers)
			}
		}
		return nil
	}
	// Plain terminal.
	if term.Tracers != 0 {
		return fmt.Errorf("scenario: terminal %q sets tracers without a population count", term.ID)
	}
	if len(term.Beams) != 0 {
		return fmt.Errorf("scenario: terminal %q sets a beam list without a population count", term.ID)
	}
	if term.Beam < 0 || term.Beam >= sp.Traffic.Carriers {
		return fmt.Errorf("scenario: terminal %q beam %d outside the %d-beam downlink", term.ID, term.Beam, sp.Traffic.Carriers)
	}
	return nil
}

// checkChannel validates a profile's static fields (the CFO trajectory
// is segment-checked separately, since drift accumulates over frames).
func checkChannel(id string, c *traffic.ChannelProfile) error {
	if c == nil {
		return nil
	}
	if c.Timing < 0 || c.Timing >= 1 {
		return fmt.Errorf("scenario: terminal %q timing offset %.3f outside [0, 1)", id, c.Timing)
	}
	if c.Gain < 0 || c.Gain > 2 {
		return fmt.Errorf("scenario: terminal %q gain %.3f outside [0, 2] (0 = unity)", id, c.Gain)
	}
	return nil
}

// checkCFOSegment bounds the effective CFO while the profile is in
// force: the Doppler ramp anchors at the installation frame (matching
// the engine), so the effective offset at frame f in [from, to) is
// CFO + Drift·(f−from) — linear, extremes at the endpoints.
func checkCFOSegment(id string, c *traffic.ChannelProfile, from, to int) error {
	if c == nil || to <= from {
		return nil
	}
	worst := max(math.Abs(c.CFO), math.Abs(c.CFO+c.Drift*float64(to-1-from)))
	if worst > MaxAbsCFO {
		return fmt.Errorf("scenario: terminal %q CFO reaches %.4f cycles/symbol by frame %d, beyond the ±%.3f acquisition range",
			id, worst, to-1, MaxAbsCFO)
	}
	return nil
}

// profileChange is one point of a terminal's channel timeline.
type profileChange struct {
	frame   int
	channel *traffic.ChannelProfile
}

// validateEvents walks the event script in frame order, tracking which
// terminals exist (joins/leaves) and each terminal's channel-profile
// timeline, so references and CFO trajectories are checked against the
// population as it stands at that frame.
func (sp Spec) validateEvents() error {
	evs := append([]Event(nil), sp.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Frame < evs[j].Frame })

	// horizon bounds drift accumulation: the scripted run length, or the
	// last event's frame if the script reaches past it.
	horizon := sp.Frames
	if n := len(evs); n > 0 && evs[n-1].Frame+1 > horizon {
		horizon = evs[n-1].Frame + 1
	}

	active := make(map[string]bool, len(sp.Terminals))
	timeline := make(map[string][]profileChange)
	for _, term := range sp.Terminals {
		ids := []string{term.ID}
		if term.Count > 0 {
			// A population entry contributes its tracer terminals to the
			// engine population; events address those, not the
			// population itself.
			ids = term.TracerIDs()
		}
		for _, id := range ids {
			active[id] = true
			timeline[id] = []profileChange{{0, term.Channel}}
		}
	}

	for i, ev := range evs {
		where := fmt.Sprintf("scenario: event %d (%s at frame %d)", i, ev.Action, ev.Frame)
		if ev.Frame < 0 {
			return fmt.Errorf("%s: negative frame", where)
		}
		switch ev.Action {
		case ActionSwapDecoder:
			if ev.Codec == "" {
				return fmt.Errorf("%s: missing codec", where)
			}
			if err := sp.checkCodec(ev.Codec); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
		case ActionMigrateWaveform:
			if _, err := ParseWaveform(ev.Waveform); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
		case ActionSetChannel:
			if !active[ev.Terminal] {
				return fmt.Errorf("%s: terminal %q not in the population at that frame", where, ev.Terminal)
			}
			timeline[ev.Terminal] = append(timeline[ev.Terminal], profileChange{ev.Frame, ev.Channel})
		case ActionJoin:
			if ev.Join == nil {
				return fmt.Errorf("%s: missing join terminal", where)
			}
			if ev.Join.ID == "" {
				return fmt.Errorf("%s: join terminal without an ID", where)
			}
			if active[ev.Join.ID] {
				return fmt.Errorf("%s: terminal %q already in the population", where, ev.Join.ID)
			}
			if ev.Join.Count > 0 {
				return fmt.Errorf("%s: aggregate populations cannot join mid-run", where)
			}
			if err := sp.checkTerminal(*ev.Join); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			active[ev.Join.ID] = true
			timeline[ev.Join.ID] = append(timeline[ev.Join.ID], profileChange{ev.Frame, ev.Join.Channel})
		case ActionLeave:
			if !active[ev.Terminal] {
				return fmt.Errorf("%s: terminal %q not in the population at that frame", where, ev.Terminal)
			}
			active[ev.Terminal] = false
			timeline[ev.Terminal] = append(timeline[ev.Terminal], profileChange{ev.Frame, nil})
		case ActionSetQueue:
			if ev.QueueDepth == 0 && ev.Policy == "" {
				return fmt.Errorf("%s: neither queue depth nor policy given", where)
			}
			if ev.QueueDepth < 0 {
				return fmt.Errorf("%s: queue depth %d", where, ev.QueueDepth)
			}
			if ev.Policy != "" {
				if _, err := ParsePolicy(ev.Policy); err != nil {
					return fmt.Errorf("%s: %w", where, err)
				}
			}
		case ActionSetScheduler:
			if ev.Scheduler == nil {
				return fmt.Errorf("%s: missing scheduler", where)
			}
			if _, err := ev.Scheduler.Build(); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
		case ActionSetClass:
			if !active[ev.Terminal] {
				return fmt.Errorf("%s: terminal %q not in the population at that frame", where, ev.Terminal)
			}
			if _, err := switchfab.ParseClass(ev.Class); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
		default:
			return fmt.Errorf("%s: unknown action", where)
		}
	}

	// Per-terminal channel timelines: static checks per profile, CFO
	// trajectory per active segment.
	for id, changes := range timeline {
		for i, ch := range changes {
			if err := checkChannel(id, ch.channel); err != nil {
				return err
			}
			end := horizon
			if i+1 < len(changes) {
				end = changes[i+1].frame
			}
			if err := checkCFOSegment(id, ch.channel, ch.frame, end); err != nil {
				return err
			}
		}
	}
	return nil
}
