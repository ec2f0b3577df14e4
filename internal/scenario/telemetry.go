package scenario

import (
	"fmt"
	"io"
	"time"

	"repro/internal/switchfab"
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
	// Format selects the wire form (default JSON lines).
	Format telemetry.Format
	// Source tags every line (default "scenario").
	Source string
	// DisableRuntime skips the per-flush Go runtime sample (heap, GC
	// pauses, goroutines).
	DisableRuntime bool
}

// TelemetryObserver adapts the per-frame Observer hook onto the
// telemetry backbone: FrameStats deltas accumulate into persistent
// registry counters every frame (an allocation-free path — the interned
// metric handles are created once, up front), and at each flush
// interval the per-class ClassStats, per-beam queue-depth gauges,
// engine stage timers and a runtime sample are reduced to one flush
// line. The cumulative counters of the final flush match the engine's
// end-of-run Report exactly — the live feed and the snapshot are two
// views of the same accounting.
type TelemetryObserver struct {
	reg *telemetry.Registry
	fl  *telemetry.Flusher
	rt  *telemetry.RuntimeSampler
	cfg TelemetryConfig
	eng *traffic.Engine // set by Attach; nil under a bare Observer()

	frames, outage     *telemetry.Counter
	granted, throttled *telemetry.Counter
	upFail, upErr      *telemetry.Counter
	delPkts, delBits   *telemetry.Counter
	dropQ, dropRe      *telemetry.Counter
	events, eventErrs  *telemetry.Counter
	cls                [switchfab.NumClasses]classCounters
	pops               map[string]popCounters // per population, interned on first flush
	queueDepth         []*telemetry.Gauge     // per beam, interned at Attach
	sinceFlush         int
	lastFlush          time.Time
	lastReport         *traffic.Report // report at the latest flush (Close reuses it)
	err                error           // first flush error; Close surfaces it
}

// classCounters is one traffic class's interned counter set.
type classCounters struct {
	routed, dropped, reencode, delivered, bits *telemetry.Counter
}

// popCounters is one aggregate population's interned metric set
// (two-tier model): admission and delivery counters under
// "pop.<name>.*" plus the member/tracer split as gauges. Interned
// lazily at the first flush that reports the population, since the
// population list lives in the report, not the config.
type popCounters struct {
	offered, granted, denied, throttled *telemetry.Counter
	routed, dropped, delivered, bits    *telemetry.Counter
	members, tracers                    *telemetry.Gauge
}

// NewTelemetryObserver builds a telemetry adapter streaming to w. Wire
// it with Attach (full instrumentation: stage timers and queue gauges
// need the engine) or install its Observer() by hand (counters, class
// stats and runtime samples only).
func NewTelemetryObserver(w io.Writer, cfg TelemetryConfig) *TelemetryObserver {
	if cfg.FlushEvery <= 0 && cfg.FlushInterval <= 0 {
		cfg.FlushEvery = 10
	}
	if cfg.Source == "" {
		cfg.Source = "scenario"
	}
	reg := telemetry.NewRegistry()
	t := &TelemetryObserver{
		reg: reg,
		fl: telemetry.NewFlusher(reg, w,
			telemetry.WithFormat(cfg.Format), telemetry.WithSource(cfg.Source)),
		cfg:       cfg,
		frames:    reg.Counter("frames"),
		outage:    reg.Counter("outage_frames"),
		granted:   reg.Counter("granted_cells"),
		throttled: reg.Counter("throttled_cells"),
		upFail:    reg.Counter("uplink_failures"),
		upErr:     reg.Counter("uplink_bit_errs"),
		delPkts:   reg.Counter("delivered_packets"),
		delBits:   reg.Counter("delivered_bits"),
		dropQ:     reg.Counter("dropped_queue"),
		dropRe:    reg.Counter("dropped_reencode"),
		events:    reg.Counter("events"),
		eventErrs: reg.Counter("event_failures"),
		lastFlush: time.Now(),
	}
	for _, c := range switchfab.Classes() {
		p := "class." + c.String() + "."
		t.cls[c] = classCounters{
			routed:    reg.Counter(p + "routed_packets"),
			dropped:   reg.Counter(p + "dropped_queue"),
			reencode:  reg.Counter(p + "dropped_reencode"),
			delivered: reg.Counter(p + "delivered_packets"),
			bits:      reg.Counter(p + "delivered_bits"),
		}
	}
	if !cfg.DisableRuntime {
		t.rt = telemetry.NewRuntimeSampler(reg)
	}
	return t
}

// Registry exposes the underlying registry, so callers can hang their
// own metrics onto the same feed.
func (t *TelemetryObserver) Registry() *telemetry.Registry { return t.reg }

// Attach wires the adapter into a session: the per-frame observer joins
// the session's chain, the engine gets stage timers (uplink synthesis,
// receive+route, schedule+fill, transmit, ground verify), and a
// queue-depth gauge is interned per downlink beam. Call it once, before
// the first Step.
func (t *TelemetryObserver) Attach(sess *Session) {
	t.eng = sess.Engine()
	t.eng.SetStageTimers(traffic.NewStageTimers(t.reg))
	beams := t.eng.Config().Frame.Carriers
	t.queueDepth = make([]*telemetry.Gauge, beams)
	for b := 0; b < beams; b++ {
		t.queueDepth[b] = t.reg.Gauge(fmt.Sprintf("queue.beam%d.depth", b))
	}
	sess.AddObserver(t.Observer())
}

// Observer returns the per-frame hook.
func (t *TelemetryObserver) Observer() Observer {
	return func(st FrameStats, report func() *traffic.Report) {
		t.frames.Inc()
		if st.Outage {
			t.outage.Inc()
		}
		t.granted.Add(int64(st.GrantedCells))
		t.throttled.Add(int64(st.ThrottledCells))
		t.upFail.Add(int64(st.UplinkFailures))
		t.upErr.Add(int64(st.UplinkBitErrs))
		t.delPkts.Add(int64(st.DeliveredPackets))
		t.delBits.Add(int64(st.DeliveredBits))
		t.dropQ.Add(int64(st.DroppedQueue))
		t.dropRe.Add(int64(st.DroppedReencode))
		t.events.Add(int64(len(st.Events)))
		for _, rec := range st.Events {
			if rec.Err != nil {
				t.eventErrs.Inc()
			}
		}
		t.sinceFlush++
		if (t.cfg.FlushEvery > 0 && t.sinceFlush >= t.cfg.FlushEvery) ||
			(t.cfg.FlushInterval > 0 && time.Since(t.lastFlush) >= t.cfg.FlushInterval) {
			t.flush(int64(st.Frame), report())
		}
	}
}

// flush reconciles the flush-cadence state (per-class counters, queue
// gauges, runtime sample) against the report snapshot and emits one
// line.
func (t *TelemetryObserver) flush(frame int64, rep *traffic.Report) {
	t.lastReport = rep
	for _, c := range switchfab.Classes() {
		if int(c) >= len(rep.PerClass) {
			break
		}
		cs, cc := rep.PerClass[c], t.cls[c]
		// Counters reconcile to the report's cumulative truth rather
		// than accumulating deltas, so they match it exactly at every
		// flush, whatever the cadence.
		cc.routed.Add(int64(cs.RoutedPackets) - cc.routed.Value())
		cc.dropped.Add(int64(cs.DroppedQueue) - cc.dropped.Value())
		cc.reencode.Add(int64(cs.DroppedReencode) - cc.reencode.Value())
		cc.delivered.Add(int64(cs.DeliveredPackets) - cc.delivered.Value())
		cc.bits.Add(int64(cs.DeliveredBits) - cc.bits.Value())
	}
	for _, ps := range rep.PerPopulation {
		pc, ok := t.pops[ps.Name]
		if !ok {
			if t.pops == nil {
				t.pops = make(map[string]popCounters, len(rep.PerPopulation))
			}
			p := "pop." + ps.Name + "."
			pc = popCounters{
				offered:   t.reg.Counter(p + "offered_cells"),
				granted:   t.reg.Counter(p + "granted_cells"),
				denied:    t.reg.Counter(p + "denied_cells"),
				throttled: t.reg.Counter(p + "throttled_cells"),
				routed:    t.reg.Counter(p + "routed_packets"),
				dropped:   t.reg.Counter(p + "dropped_queue"),
				delivered: t.reg.Counter(p + "delivered_packets"),
				bits:      t.reg.Counter(p + "delivered_bits"),
				members:   t.reg.Gauge(p + "members"),
				tracers:   t.reg.Gauge(p + "tracers"),
			}
			t.pops[ps.Name] = pc
		}
		pc.offered.Add(int64(ps.OfferedCells) - pc.offered.Value())
		pc.granted.Add(int64(ps.GrantedCells) - pc.granted.Value())
		pc.denied.Add(int64(ps.DeniedCells) - pc.denied.Value())
		pc.throttled.Add(int64(ps.ThrottledCells) - pc.throttled.Value())
		pc.routed.Add(int64(ps.RoutedPackets) - pc.routed.Value())
		pc.dropped.Add(int64(ps.DroppedQueue) - pc.dropped.Value())
		pc.delivered.Add(int64(ps.DeliveredPackets) - pc.delivered.Value())
		pc.bits.Add(int64(ps.DeliveredBits) - pc.bits.Value())
		pc.members.Set(float64(ps.Members))
		pc.tracers.Set(float64(ps.Tracers))
	}
	for b, g := range t.queueDepth {
		g.Set(float64(t.eng.QueueDepth(b)))
	}
	if t.rt != nil {
		t.rt.Sample()
	}
	if err := t.fl.Flush(frame); err != nil && t.err == nil {
		t.err = err
	}
	t.sinceFlush = 0
	t.lastFlush = time.Now()
}

// Close emits the final flush — the tail of the run since the last
// interval boundary — and returns the first write error of the stream.
// After Close the cumulative counters of the last emitted line match
// the engine's final Report exactly.
func (t *TelemetryObserver) Close() error {
	if t.sinceFlush == 0 && t.fl.Seq() > 0 {
		// The last interval boundary coincided with the last frame: that
		// line is already final, a duplicate would skew differencing.
		return t.err
	}
	if t.eng != nil {
		t.flush(int64(t.eng.Frame())-1, t.eng.Report())
	} else if t.lastReport != nil {
		t.flush(-1, t.lastReport)
	}
	return t.err
}
