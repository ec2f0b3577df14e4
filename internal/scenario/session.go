package scenario

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/payload"
	"repro/internal/switchfab"
	"repro/internal/traffic"
)

// ControlPlane is the live reconfiguration surface a session scripts
// decoder swaps and waveform migrations through. core.System adapts its
// ground-initiated scenarios (upload, COPS policy, five-step reload) to
// it; a session without one falls back to reconfiguring the payload
// directly, which models an autonomous on-board procedure with no
// ground round-trip.
type ControlPlane interface {
	SwapDecoder(codec string) error
	MigrateWaveform(mode payload.WaveformMode) error
}

// EventRecord is the execution log entry of one scripted event.
type EventRecord struct {
	Frame  int
	Action string
	Detail string
	Err    error
}

// String renders a compact log line.
func (r EventRecord) String() string {
	s := fmt.Sprintf("frame %d: %s", r.Frame, r.Action)
	if r.Detail != "" {
		s += " " + r.Detail
	}
	if r.Err != nil {
		s += " FAILED: " + r.Err.Error()
	}
	return s
}

// FrameStats is what a frame itself produced, delivered to observers
// after every frame. The run counters are not here: traffic.Report is
// the one counter set, and report() snapshots it.
type FrameStats struct {
	Frame int // frame index just completed (0-based)

	// Events applied at this frame's boundary, in script order.
	Events []EventRecord
}

// Observer is the per-frame hook: stats is the frame just completed,
// report builds the live cumulative metrics on demand (the snapshot
// costs O(terminals) — a frame whose observers never call it, or a
// session with no observer, takes none).
//
// The report() contract: the snapshot is computed at most once per
// frame — repeated calls within a frame (by one observer or across the
// frame's observer chain) return the same *Report, so a per-frame
// consumer never pays the reduction twice. Because the snapshot is
// shared within the frame, observers must treat it as read-only; it is
// never reused by a later frame, so retaining it across frames is safe.
// The FrameStats value (its Events slice included) is likewise a safe
// copy: the session never aliases or mutates it after delivery.
//
// Observers run synchronously between frames, in installation order, so
// they see (and may react to, e.g. by cancelling the run context) a
// consistent frame-boundary state.
type Observer func(stats FrameStats, report func() *traffic.Report)

// Session executes a Spec frame by frame over a traffic engine, firing
// scripted events at frame boundaries.
type Session struct {
	spec Spec
	pl   *payload.Payload
	eng  *traffic.Engine
	ctrl ControlPlane
	obs  []Observer

	// repCache/repFn implement the at-most-once-per-frame report()
	// contract: Step clears the cache, repFn computes on first call and
	// replays the cached snapshot after. Hoisted into fields so the
	// observer path does not allocate a fresh closure every frame.
	repCache *traffic.Report
	repFn    func() *traffic.Report

	events []Event // sorted stable by frame
	next   int
	log    []EventRecord
}

// Option configures a Session at construction.
type Option func(*Session)

// WithObserver installs a per-frame observer hook. The option may be
// given more than once; observers run in installation order and share
// the frame's report() snapshot.
func WithObserver(obs Observer) Option {
	return func(s *Session) { s.obs = append(s.obs, obs) }
}

// WithControlPlane routes swap-decoder / migrate-waveform events
// through a live control plane instead of direct payload calls.
func WithControlPlane(cp ControlPlane) Option { return func(s *Session) { s.ctrl = cp } }

// WithPayload attaches the session to an existing payload (e.g. the
// assembled system's) instead of booting one from the spec. The spec's
// codec is still installed.
func WithPayload(pl *payload.Payload) Option { return func(s *Session) { s.pl = pl } }

// NewSession resolves and validates a Spec into a runnable Session.
func NewSession(spec Spec, opts ...Option) (*Session, error) {
	s := &Session{spec: spec}
	for _, o := range opts {
		o(s)
	}
	if err := s.spec.Validate(); err != nil {
		return nil, err
	}

	if s.pl == nil {
		pl, err := payload.New(s.spec.PayloadConfig())
		if err != nil {
			return nil, err
		}
		s.pl = pl
		if err := s.pl.SetWaveform(payload.ModeTDMA); err != nil {
			return nil, err
		}
	} else {
		// An attached payload is shared state: installing TDMA on a
		// freshly booted one (no waveform yet) is setup, but silently
		// reloading the DEMOD devices of a payload someone migrated to
		// another waveform would clobber it — that needs an explicit
		// migrate-waveform (or ground procedure) first.
		switch s.pl.Mode() {
		case payload.ModeTDMA:
		case payload.ModeNone:
			if err := s.pl.SetWaveform(payload.ModeTDMA); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("scenario: attached payload carries the %s waveform; migrate it to tdma first", s.pl.Mode())
		}
		// Validation sized burst budgets from the spec; the attached
		// payload must actually match, or the checks were vacuous.
		bf := s.pl.BurstFormat()
		if n := s.spec.System.PayloadSymbols; n > 0 && bf.PayloadLen != n {
			return nil, fmt.Errorf("scenario: spec declares %d-symbol burst payloads, attached payload carries %d", n, bf.PayloadLen)
		}
		if bs := s.spec.Traffic.SlotSymbols - s.spec.Traffic.GuardSymbols; bf.TotalSymbols() > bs {
			return nil, fmt.Errorf("scenario: attached payload's %d-symbol burst over the %d-symbol slot budget", bf.TotalSymbols(), bs)
		}
	}
	if err := s.pl.SetCodec(s.spec.System.Codec); err != nil {
		return nil, err
	}

	cfg, err := s.spec.TrafficConfig()
	if err != nil {
		return nil, err
	}
	terms, pops, err := s.spec.Populations()
	if err != nil {
		return nil, err
	}
	eng, err := traffic.NewPopulations(s.pl, cfg, terms, pops)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.events = append([]Event(nil), s.spec.Events...)
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Frame < s.events[j].Frame })
	s.repFn = func() *traffic.Report {
		if s.repCache == nil {
			s.repCache = s.eng.Report()
		}
		return s.repCache
	}
	return s, nil
}

// AddObserver appends a per-frame observer after construction — the
// attachment path for consumers that need the built session (e.g. the
// telemetry adapter wiring engine stage timers). It must be called
// between frames, not from inside an observer.
func (s *Session) AddObserver(obs Observer) { s.obs = append(s.obs, obs) }

// Engine exposes the underlying traffic engine — the session owns its
// frame clock, so callers should mutate through events, not directly.
func (s *Session) Engine() *traffic.Engine { return s.eng }

// Payload returns the payload under the session.
func (s *Session) Payload() *payload.Payload { return s.pl }

// Frame returns the number of frames completed.
func (s *Session) Frame() int { return s.eng.Frame() }

// Report snapshots the cumulative run metrics exactly: it first drains
// the engine, so the snapshot includes the last frame's ground-verify
// counters (the per-frame observer snapshot does not: its
// downlink_lost and downlink_bit_errs may lag by the one frame in
// flight).
func (s *Session) Report() *traffic.Report {
	_ = s.eng.Drain() // sticky: the next Step or Close reports it
	return s.eng.Report()
}

// Close joins the last frame's egress and surfaces its error; the
// drained engine owns no goroutine and has returned its frame buffers
// (traffic.Engine.Close), and the session keeps working.
func (s *Session) Close() error { return s.eng.Close() }

// EventLog returns the events executed so far, in execution order.
func (s *Session) EventLog() []EventRecord { return append([]EventRecord(nil), s.log...) }

// Step applies the events scheduled for the upcoming frame, runs that
// frame through the closed loop, and returns the frame's stats.
// Stepping past Spec.Frames is legal (benchmarks free-run a session);
// only Run treats Spec.Frames as the finish line. A failed event aborts
// the step with its record still in the log and in the returned stats.
func (s *Session) Step() (FrameStats, error) {
	f := s.eng.Frame()
	st := FrameStats{Frame: f}
	if s.next < len(s.events) && s.events[s.next].Frame <= f {
		// Events mutate the engine and — out of its sight — the payload;
		// the in-flight egress must finish first.
		if err := s.eng.Drain(); err != nil {
			return st, err
		}
	}
	for s.next < len(s.events) && s.events[s.next].Frame <= f {
		ev := s.events[s.next]
		s.next++
		rec := s.apply(ev)
		s.log = append(s.log, rec)
		st.Events = append(st.Events, rec)
		if rec.Err != nil {
			return st, fmt.Errorf("scenario: frame %d event %s: %w", f, ev.Action, rec.Err)
		}
	}
	if err := s.eng.Step(); err != nil {
		return st, err
	}
	if len(s.obs) > 0 {
		s.repCache = nil
		for _, obs := range s.obs {
			obs(st, s.repFn)
		}
	}
	return st, nil
}

// Run executes the spec to its scripted length, checking the context at
// every frame boundary — a cancelled run stops cleanly between frames
// and returns the consistent report accumulated so far alongside the
// context's error.
func (s *Session) Run(ctx context.Context) (*traffic.Report, error) {
	for s.eng.Frame() < s.spec.Frames {
		if err := ctx.Err(); err != nil {
			return s.Report(), err
		}
		if _, err := s.Step(); err != nil {
			return s.Report(), err
		}
	}
	err := s.eng.Drain()
	return s.eng.Report(), err
}

// apply executes one scripted event against the live run.
func (s *Session) apply(ev Event) EventRecord {
	rec := EventRecord{Frame: ev.Frame, Action: ev.Action}
	var err error
	switch ev.Action {
	case ActionSwapDecoder:
		rec.Detail = ev.Codec
		if s.ctrl != nil {
			err = s.ctrl.SwapDecoder(ev.Codec)
		} else {
			err = s.pl.SetCodec(ev.Codec)
		}
	case ActionMigrateWaveform:
		rec.Detail = ev.Waveform
		var mode payload.WaveformMode
		if mode, err = ParseWaveform(ev.Waveform); err == nil {
			if s.ctrl != nil {
				err = s.ctrl.MigrateWaveform(mode)
			} else {
				err = s.pl.SetWaveform(mode)
			}
		}
	case ActionSetChannel:
		rec.Detail = ev.Terminal
		err = s.eng.SetTerminalChannel(ev.Terminal, clonePtr(ev.Channel))
	case ActionJoin:
		if ev.Join == nil {
			err = errors.New("missing join terminal")
			break
		}
		rec.Detail = ev.Join.ID
		var term traffic.Terminal
		if term, err = ev.Join.Terminal(); err == nil {
			err = s.eng.AddTerminal(term)
		}
	case ActionLeave:
		rec.Detail = ev.Terminal
		err = s.eng.RemoveTerminal(ev.Terminal)
	case ActionSetQueue:
		if ev.QueueDepth > 0 {
			rec.Detail = fmt.Sprintf("depth=%d", ev.QueueDepth)
			err = s.eng.SetQueueDepth(ev.QueueDepth)
		}
		if err == nil && ev.Policy != "" {
			var p traffic.DropPolicy
			if p, err = ParsePolicy(ev.Policy); err == nil {
				s.eng.SetQueuePolicy(p)
				if rec.Detail != "" {
					rec.Detail += " "
				}
				rec.Detail += "policy=" + ev.Policy
			}
		}
	case ActionSetScheduler:
		var sched switchfab.Scheduler
		if sched, err = ev.Scheduler.Build(); err == nil {
			rec.Detail = sched.Name()
			err = s.eng.SetScheduler(sched)
		}
	case ActionSetClass:
		var cls switchfab.Class
		if cls, err = switchfab.ParseClass(ev.Class); err == nil {
			rec.Detail = fmt.Sprintf("%s->%s", ev.Terminal, cls)
			err = s.eng.SetTerminalClass(ev.Terminal, cls)
		}
	default:
		err = fmt.Errorf("unknown action %q", ev.Action)
	}
	rec.Err = err
	return rec
}
