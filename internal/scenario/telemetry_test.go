package scenario

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/switchfab"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func decodeTelemetry(t *testing.T, s string) []telemetry.Line {
	t.Helper()
	var lines []telemetry.Line
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		var ln telemetry.Line
		if err := dec.Decode(&ln); err != nil {
			t.Fatalf("flush line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	return lines
}

// TestTelemetryObserverMatchesReport runs the qos-priority preset with
// an attached telemetry feed and pins the backbone's core contract: the
// final flush's cumulative counters equal the end-of-run Report exactly
// (top-level and per class), every flush carries the full persistent
// key set, and the engine stage timers sampled once per frame.
func TestTelemetryObserverMatchesReport(t *testing.T) {
	spec, err := Preset("qos-priority")
	if err != nil {
		t.Fatal(err)
	}
	spec.Frames = 8
	spec.Traffic.Verify = true
	var buf bytes.Buffer
	tel := NewTelemetryObserver(&buf, TelemetryConfig{FlushEvery: 3, Source: "test"})
	sess, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	tel.Attach(sess)
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}

	lines := decodeTelemetry(t, buf.String())
	// 8 frames at FlushEvery=3 → flushes after frames 2 and 5, plus the
	// Close tail for frames 6–7.
	if len(lines) != 3 {
		t.Fatalf("%d flush lines, want 3", len(lines))
	}
	for i, ln := range lines {
		if ln.Seq != int64(i) {
			t.Fatalf("line %d: seq %d", i, ln.Seq)
		}
		if ln.Source != "test" {
			t.Fatalf("line %d: source %q", i, ln.Source)
		}
		for _, key := range []string{
			"frames", "granted_cells", "delivered_bits", "class.ef.routed_packets",
		} {
			if _, ok := ln.Counters[key]; !ok {
				t.Fatalf("line %d missing counter %q", i, key)
			}
		}
		for _, key := range []string{"queue.beam0.depth", "runtime.heap_alloc_bytes"} {
			if _, ok := ln.Gauges[key]; !ok {
				t.Fatalf("line %d missing gauge %q", i, key)
			}
		}
	}
	if lines[0].Frame != 2 || lines[1].Frame != 5 || lines[2].Frame != 7 {
		t.Fatalf("flush frames %d/%d/%d, want 2/5/7", lines[0].Frame, lines[1].Frame, lines[2].Frame)
	}

	final := lines[len(lines)-1]
	for key, want := range map[string]int{
		"frames":            rep.Frames,
		"outage_frames":     rep.OutageFrames,
		"granted_cells":     rep.GrantedCells,
		"throttled_cells":   rep.ThrottledCells,
		"uplink_failures":   rep.UplinkFailures,
		"uplink_bit_errs":   rep.UplinkBitErrs,
		"delivered_packets": rep.DeliveredPackets,
		"delivered_bits":    rep.DeliveredBits,
		"dropped_queue":     rep.DroppedQueue,
		"dropped_reencode":  rep.DroppedReencode,
	} {
		if got := final.Counters[key]; got != int64(want) {
			t.Errorf("final %s = %d, report says %d", key, got, want)
		}
	}
	for c := switchfab.Class(0); c < switchfab.NumClasses; c++ {
		cs := rep.PerClass[c]
		p := "class." + c.String() + "."
		for key, want := range map[string]int{
			p + "routed_packets":    cs.RoutedPackets,
			p + "dropped_queue":     cs.DroppedQueue,
			p + "dropped_reencode":  cs.DroppedReencode,
			p + "delivered_packets": cs.DeliveredPackets,
			p + "delivered_bits":    cs.DeliveredBits,
		} {
			if got := final.Counters[key]; got != int64(want) {
				t.Errorf("final %s = %d, report says %d", key, got, want)
			}
		}
	}

	// Stage timers: one sample per frame per stage, verify stage
	// included (the preset runs verified here).
	for _, stage := range []string{
		"engine.stage.synthesis_ns", "engine.stage.receive_ns",
		"engine.stage.schedule_ns", "engine.stage.transmit_ns", "engine.stage.verify_ns",
	} {
		total := int64(0)
		for _, ln := range lines {
			st, ok := ln.Timers[stage]
			if !ok {
				t.Fatalf("missing stage timer %s", stage)
			}
			total += st.Count
		}
		// Outage frames skip the loop before the first stage clock.
		want := int64(rep.Frames - rep.OutageFrames)
		if total != want {
			t.Errorf("%s sampled %d times over %d frames", stage, total, rep.Frames)
		}
	}
}

// TestTelemetryCloseIdempotentOnBoundary pins the Close tail-flush
// guard: a run ending exactly on a flush boundary emits no duplicate
// final line.
func TestTelemetryCloseIdempotentOnBoundary(t *testing.T) {
	spec, err := Preset("clean")
	if err != nil {
		t.Fatal(err)
	}
	spec.Frames = 4
	var buf bytes.Buffer
	tel := NewTelemetryObserver(&buf, TelemetryConfig{FlushEvery: 2})
	spec.Traffic.Verify = false
	sess, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	tel.Attach(sess)
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if lines := decodeTelemetry(t, buf.String()); len(lines) != 2 {
		t.Fatalf("%d lines for 4 frames at FlushEvery=2, want 2 (no Close duplicate)", len(lines))
	}
}

// TestObserverReportMemoized pins the report() contract: within one
// frame the snapshot is computed at most once — every call, across the
// whole observer chain, returns the same *Report — and the next frame
// gets a fresh one.
func TestObserverReportMemoized(t *testing.T) {
	spec, err := Preset("clean")
	if err != nil {
		t.Fatal(err)
	}
	var perFrame [][]*traffic.Report
	grab := func(stats FrameStats, report func() *traffic.Report) {
		f := stats.Frame
		for len(perFrame) <= f {
			perFrame = append(perFrame, nil)
		}
		perFrame[f] = append(perFrame[f], report(), report())
	}
	spec.Traffic.Verify = false
	sess, err := NewSession(spec, WithObserver(grab), WithObserver(grab))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(perFrame) != 3 {
		t.Fatalf("%d frames observed, want 3", len(perFrame))
	}
	for f, reps := range perFrame {
		if len(reps) != 4 { // 2 observers × 2 calls
			t.Fatalf("frame %d: %d report calls recorded", f, len(reps))
		}
		for _, r := range reps[1:] {
			if r != reps[0] {
				t.Fatalf("frame %d: report() returned distinct snapshots within the frame", f)
			}
		}
		if f > 0 && reps[0] == perFrame[f-1][0] {
			t.Fatalf("frame %d: report() reused the previous frame's snapshot", f)
		}
		if reps[0].Frames != f+1 {
			t.Fatalf("frame %d: snapshot covers %d frames", f, reps[0].Frames)
		}
	}
}

// TestObserverFrameStatsSafeCopy pins the other half of the observer
// contract: the delivered FrameStats (its Events slice included) is the
// observer's to keep — mutating a retained copy does not corrupt the
// session's event log, and later frames never alias it.
func TestObserverFrameStatsSafeCopy(t *testing.T) {
	spec, err := Preset("swap-under-load") // has scripted events
	if err != nil {
		t.Fatal(err)
	}
	var retained []FrameStats
	spec.Traffic.Verify = false
	sess, err := NewSession(spec,
		WithObserver(func(stats FrameStats, _ func() *traffic.Report) {
			retained = append(retained, stats)
		}))
	if err != nil {
		t.Fatal(err)
	}
	for sess.Frame() < spec.Frames {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var evFrames []int
	for _, st := range retained {
		for i := range st.Events {
			evFrames = append(evFrames, st.Events[i].Frame)
			// Vandalize the retained record; the session log must not see it.
			st.Events[i].Action = "vandalized"
			st.Events[i].Frame = -99
		}
	}
	if len(evFrames) == 0 {
		t.Fatal("preset fired no events; test is vacuous")
	}
	log := sess.EventLog()
	if len(log) != len(evFrames) {
		t.Fatalf("event log has %d records, observers saw %d", len(log), len(evFrames))
	}
	for i, rec := range log {
		if rec.Action == "vandalized" || rec.Frame == -99 {
			t.Fatalf("session event log aliased the observer's FrameStats copy: %+v", rec)
		}
		if rec.Frame != evFrames[i] {
			t.Fatalf("log record %d frame %d, observer saw %d", i, rec.Frame, evFrames[i])
		}
	}
}

// TestTelemetryIntervalOnlyFlush pins the FlushEvery=0 interval-only
// mode: the frame-count trigger is off (no silent default-10
// coercion), and the wall-clock trigger alone paces the stream. An
// always-elapsed interval flushes every frame; a never-elapsed one
// leaves only the Close tail line.
func TestTelemetryIntervalOnlyFlush(t *testing.T) {
	run := func(cfg TelemetryConfig) (int, *traffic.Report) {
		spec, err := Preset("clean")
		if err != nil {
			t.Fatal(err)
		}
		spec.Frames = 6
		var buf bytes.Buffer
		tel := NewTelemetryObserver(&buf, cfg)
		sess, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		tel.Attach(sess)
		rep, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		return len(decodeTelemetry(t, buf.String())), rep
	}
	if n, rep := run(TelemetryConfig{FlushEvery: 0, FlushInterval: 1}); n != rep.Frames {
		t.Fatalf("always-elapsed interval: %d lines over %d frames", n, rep.Frames)
	}
	if n, _ := run(TelemetryConfig{FlushEvery: 0, FlushInterval: time.Hour}); n != 1 {
		t.Fatalf("never-elapsed interval: %d lines, want just the Close tail", n)
	}
	// Neither trigger configured still defaults to every 10 frames.
	if n, _ := run(TelemetryConfig{}); n != 1 {
		t.Fatalf("default cadence: %d lines over 6 frames, want the Close tail only", n)
	}
}

// TestTelemetryPopulationCounters runs the megapop preset with an
// attached feed and pins the pop.<name>.* schema: the final flush's
// population counters equal the end-of-run report rows, and the
// member/tracer split rides as gauges.
func TestTelemetryPopulationCounters(t *testing.T) {
	spec, err := Preset("megapop")
	if err != nil {
		t.Fatal(err)
	}
	spec.Frames = 6
	var buf bytes.Buffer
	tel := NewTelemetryObserver(&buf, TelemetryConfig{FlushEvery: 2, Source: "test"})
	sess, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	tel.Attach(sess)
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	lines := decodeTelemetry(t, buf.String())
	if len(lines) == 0 {
		t.Fatal("no flush lines")
	}
	final := lines[len(lines)-1]
	if len(rep.PerPopulation) == 0 {
		t.Fatal("megapop report has no population rows")
	}
	for _, ps := range rep.PerPopulation {
		p := "pop." + ps.Name + "."
		for key, want := range map[string]int{
			p + "offered_cells":     ps.OfferedCells,
			p + "granted_cells":     ps.GrantedCells,
			p + "denied_cells":      ps.DeniedCells,
			p + "throttled_cells":   ps.ThrottledCells,
			p + "routed_packets":    ps.RoutedPackets,
			p + "dropped_queue":     ps.DroppedQueue,
			p + "delivered_packets": ps.DeliveredPackets,
			p + "delivered_bits":    ps.DeliveredBits,
		} {
			if got, ok := final.Counters[key]; !ok || got != int64(want) {
				t.Errorf("final %s = %d (present %v), report says %d", key, got, ok, want)
			}
		}
		for key, want := range map[string]float64{
			p + "members": float64(ps.Members),
			p + "tracers": float64(ps.Tracers),
		} {
			if got, ok := final.Gauges[key]; !ok || got != want {
				t.Errorf("final %s = %v (present %v), want %v", key, got, ok, want)
			}
		}
	}
}

// TestFeedCarriesEveryReportCounter pins the rule "the feed's counters
// are the report's integer fields" by reflection, independently of the
// walk the observer uses, so a field added to Report, ClassStats or
// PopulationStats extends the test: on every preset, each integer field
// is in the final flush line under its JSON name — bare at the top
// level, under class.<class>. and pop.<name>. for the rows — with the
// report's value, as a counter or (members/tracers) a gauge.
func TestFeedCarriesEveryReportCounter(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			spec, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Frames = 2
			var buf bytes.Buffer
			tel := NewTelemetryObserver(&buf, TelemetryConfig{FlushEvery: 1})
			sess, err := NewSession(spec)
			if err != nil {
				t.Fatal(err)
			}
			tel.Attach(sess)
			rep, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := tel.Close(); err != nil {
				t.Fatal(err)
			}
			lines := decodeTelemetry(t, buf.String())
			if len(lines) != 2 {
				t.Fatalf("%d flush lines over 2 frames", len(lines))
			}
			final := lines[len(lines)-1]
			checked := 0
			check := func(prefix string, row any) {
				v := reflect.ValueOf(row)
				for i := 0; i < v.NumField(); i++ {
					f := v.Type().Field(i)
					if f.Type.Kind() != reflect.Int {
						continue
					}
					key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
					key = prefix + key
					want := v.Field(i).Int()
					if got, ok := final.Counters[key]; ok {
						if got != want {
							t.Errorf("counter %s = %d, report says %d", key, got, want)
						}
					} else if got, ok := final.Gauges[key]; !ok {
						t.Errorf("%s (%s) is not in the final flush line", key, f.Name)
					} else if got != float64(want) {
						t.Errorf("gauge %s = %v, report says %d", key, got, want)
					}
					checked++
				}
			}
			check("", *rep)
			for _, cs := range rep.PerClass {
				check("class."+cs.Class+".", cs)
			}
			for _, ps := range rep.PerPopulation {
				check("pop."+ps.Name+".", ps)
			}
			if checked < 20 || rep.GrantedCells == 0 {
				t.Fatalf("vacuous: %d fields checked, %d cells granted", checked, rep.GrantedCells)
			}
		})
	}
}

// TestTelemetryCloseBeforeSessionReconcilesVerify closes the feed before
// the session, with a frame's egress still in flight (stepping by hand —
// Run would drain) on a carrier plan spaced tighter than a burst is
// wide, so ground verify counts errors on every frame:
// the final line must carry the drained report's two ground-verify
// counters, the in-flight frame's share included — also when the last
// frame fell on a flush boundary and only the drain moved them.
func TestTelemetryCloseBeforeSessionReconcilesVerify(t *testing.T) {
	for _, flushEvery := range []int{4, 3} { // 4 frames: on and off the boundary
		spec, err := Preset("clean")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.TrafficConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Plan = frontend.CarrierPlan{Carriers: cfg.Frame.Carriers, Spacing: 0.045, Decim: 4}
		terms, pops, err := spec.Populations()
		if err != nil {
			t.Fatal(err)
		}
		if sess.eng, err = traffic.NewPopulations(sess.pl, cfg, terms, pops); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tel := NewTelemetryObserver(&buf, TelemetryConfig{FlushEvery: flushEvery})
		tel.Attach(sess)
		for i := 0; i < 4; i++ {
			if _, err := sess.Step(); err != nil {
				t.Fatal(err)
			}
		}
		lagged := sess.eng.Report() // no drain: the fourth frame's verify is still out
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		rep := sess.Report()
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if rep.DownlinkBitErrs+rep.DownlinkLost == lagged.DownlinkBitErrs+lagged.DownlinkLost {
			t.Fatal("the in-flight frame moved no verify counter; the test is vacuous")
		}
		lines := decodeTelemetry(t, buf.String())
		final := lines[len(lines)-1]
		if got := final.Counters["downlink_bit_errs"]; got != int64(rep.DownlinkBitErrs) {
			t.Errorf("FlushEvery %d: final downlink_bit_errs = %d, drained report says %d", flushEvery, got, rep.DownlinkBitErrs)
		}
		if got := final.Counters["downlink_lost"]; got != int64(rep.DownlinkLost) {
			t.Errorf("FlushEvery %d: final downlink_lost = %d, drained report says %d", flushEvery, got, rep.DownlinkLost)
		}
	}
}
