package scenario

import (
	"fmt"
	"io"
	"time"

	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TelemetryConfig shapes the streaming feed of a TelemetryObserver.
type TelemetryConfig struct {
	// FlushEvery flushes after every N frames. Zero or negative disables
	// the frame-count trigger when FlushInterval is set (interval-only
	// flushing); with neither trigger configured it defaults to 10.
	FlushEvery int
	// FlushInterval additionally flushes when this much wall-clock time
	// has passed since the last flush — the long-frame safety valve for
	// dashboards. Zero disables the wall-clock trigger.
	FlushInterval time.Duration
	// Source tags every line (default "scenario").
	Source string
}

// TelemetryObserver adapts the per-frame Observer hook onto the
// telemetry backbone. The feed's counters are the report's integer
// fields: at each flush every counter is set from one walk over the
// frame's report snapshot (traffic.Report.Counters — top level, per
// class, per population), so the feed carries exactly the report's
// names and values at every flush, whatever the cadence, and a frame
// that does not flush takes no snapshot. The per-beam queue-depth
// gauges, engine stage timers and a runtime sample ride on the same
// line.
type TelemetryObserver struct {
	reg  *telemetry.Registry
	fl   *telemetry.Flusher
	rt   *telemetry.RuntimeSampler
	cfg  TelemetryConfig
	sess *Session // set by Attach

	events, eventErrs *telemetry.Counter // the script's, not the report's
	queueDepth        []*telemetry.Gauge // per beam, interned at Attach
	sinceFlush        int
	lastFlush         time.Time
	err               error // first flush error; Close surfaces it
}

// NewTelemetryObserver builds a telemetry adapter streaming to w; wire
// it into a session with Attach.
func NewTelemetryObserver(w io.Writer, cfg TelemetryConfig) *TelemetryObserver {
	if cfg.FlushEvery <= 0 && cfg.FlushInterval <= 0 {
		cfg.FlushEvery = 10
	}
	if cfg.Source == "" {
		cfg.Source = "scenario"
	}
	reg := telemetry.NewRegistry()
	return &TelemetryObserver{
		reg:       reg,
		fl:        telemetry.NewFlusher(reg, w, telemetry.WithSource(cfg.Source)),
		cfg:       cfg,
		rt:        telemetry.NewRuntimeSampler(reg),
		events:    reg.Counter("events"),
		eventErrs: reg.Counter("event_failures"),
		lastFlush: time.Now(),
	}
}

// Attach wires the adapter into a session: the per-frame observer joins
// the session's chain, the engine gets stage timers (uplink synthesis,
// receive+route, schedule+fill, transmit, ground verify), and a
// queue-depth gauge is interned per downlink beam. Call it once, before
// the first Step.
func (t *TelemetryObserver) Attach(sess *Session) {
	t.sess = sess
	eng := sess.Engine()
	eng.SetStageTimers(traffic.NewStageTimers(t.reg))
	beams := eng.Config().Frame.Carriers
	t.queueDepth = make([]*telemetry.Gauge, beams)
	for b := 0; b < beams; b++ {
		t.queueDepth[b] = t.reg.Gauge(fmt.Sprintf("queue.beam%d.depth", b))
	}
	sess.AddObserver(t.observe)
}

// observe is the per-frame hook.
func (t *TelemetryObserver) observe(st FrameStats, report func() *traffic.Report) {
	t.events.Add(int64(len(st.Events)))
	for _, rec := range st.Events {
		if rec.Err != nil {
			t.eventErrs.Inc()
		}
	}
	t.sinceFlush++
	if (t.cfg.FlushEvery > 0 && t.sinceFlush >= t.cfg.FlushEvery) ||
		(t.cfg.FlushInterval > 0 && time.Since(t.lastFlush) >= t.cfg.FlushInterval) {
		t.set(report())
		t.emit(int64(st.Frame))
	}
}

// set brings the feed's counters (and the population gauges) to a
// report snapshot through the report's own walk, and says whether any
// counter moved.
func (t *TelemetryObserver) set(rep *traffic.Report) (moved bool) {
	rep.Counters(func(name string, v int64, gauge bool) {
		if gauge {
			t.reg.Gauge(name).Set(float64(v))
		} else if c := t.reg.Counter(name); c.Value() != v {
			c.Add(v - c.Value())
			moved = true
		}
	})
	return moved
}

// emit samples the flush-cadence gauges (queue depths, runtime) and
// writes one line.
func (t *TelemetryObserver) emit(frame int64) {
	for b, g := range t.queueDepth {
		g.Set(float64(t.sess.Engine().QueueDepth(b)))
	}
	t.rt.Sample()
	if err := t.fl.Flush(frame); err != nil && t.err == nil {
		t.err = err
	}
	t.sinceFlush = 0
	t.lastFlush = time.Now()
}

// Close emits the final flush — the tail of the run since the last
// interval boundary — and returns the first write error of the stream.
// Its snapshot is Session.Report's, which drains the engine first, so
// the last line matches the final Report exactly — the ground-verify
// counters of the frame still in flight included — whether the feed or
// the session is closed first.
func (t *TelemetryObserver) Close() error {
	if t.sess == nil {
		return t.err
	}
	moved := t.set(t.sess.Report())
	if t.sinceFlush == 0 && t.fl.Seq() > 0 && !moved {
		// The last interval boundary coincided with the last frame and the
		// drain changed nothing: that line is already final, a duplicate
		// would skew differencing.
		return t.err
	}
	t.emit(int64(t.sess.Frame()) - 1)
	return t.err
}
