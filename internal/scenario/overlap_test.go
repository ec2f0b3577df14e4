package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/switchfab"
	"repro/internal/traffic"
)

// procsRun executes a spec to completion at the given GOMAXPROCS — the
// engine's only step-path selector, chosen here the way users choose it
// — with the telemetry observer attached, and returns the per-frame
// stat sequence, the final report (wall time zeroed — the only
// nondeterministic field), a snapshot of every deterministic telemetry
// metric, and how many frames' egress overlapped the next frame. The
// first three are the bit-identity surface the engine promises across
// core counts: reports, telemetry counters, ground-verify bits (the
// report's downlink loss/error counters).
func procsRun(t *testing.T, sp Spec, procs int) ([]FrameStats, string, map[string]string, int64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var frames []FrameStats
	sess, err := NewSession(sp,
		WithObserver(func(st FrameStats, _ func() *traffic.Report) {
			frames = append(frames, st)
		}))
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetryObserver(io.Discard, TelemetryConfig{FlushEvery: 1, DisableRuntime: true})
	tel.Attach(sess)
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	rep.WallSeconds = 0
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	overlapped := tel.Registry().Timer("engine.pipeline.overlap_ns").Count()
	return frames, string(data), telemetrySnapshot(sess, tel), overlapped
}

// telemetrySnapshot reads back every deterministic metric the
// TelemetryObserver interns (cumulative counters, per-class and
// per-population families, queue-depth gauges). Timers are excluded:
// their samples are wall-clock durations, legitimately different
// between runs.
func telemetrySnapshot(sess *Session, tel *TelemetryObserver) map[string]string {
	reg := tel.Registry()
	out := map[string]string{}
	names := []string{
		"frames", "outage_frames", "granted_cells", "throttled_cells",
		"uplink_failures", "uplink_bit_errs", "delivered_packets",
		"delivered_bits", "dropped_queue", "dropped_reencode",
		"events", "event_failures",
	}
	for _, c := range switchfab.Classes() {
		p := "class." + c.String() + "."
		names = append(names, p+"routed_packets", p+"dropped_queue",
			p+"dropped_reencode", p+"delivered_packets", p+"delivered_bits")
	}
	for _, ps := range sess.Engine().Populations() {
		p := "pop." + ps.Name + "."
		names = append(names, p+"offered_cells", p+"granted_cells",
			p+"denied_cells", p+"throttled_cells", p+"routed_packets",
			p+"dropped_queue", p+"delivered_packets", p+"delivered_bits")
	}
	for _, n := range names {
		out[n] = fmt.Sprint(reg.Counter(n).Value())
	}
	for b := 0; b < sess.Engine().Config().Frame.Carriers; b++ {
		n := fmt.Sprintf("queue.beam%d.depth", b)
		out[n] = fmt.Sprint(reg.Gauge(n).Value())
	}
	return out
}

// identityFrames shortens a preset for the table test while keeping
// every scripted event (plus a few frames of aftermath) in play — the
// swap-under-load decoder swap at frame 60 stays covered without
// running its full 120 frames twice per comparison.
func identityFrames(sp Spec) int {
	frames := 12
	for _, ev := range sp.Events {
		if ev.Frame+3 > frames {
			frames = ev.Frame + 3
		}
	}
	if frames > sp.Frames {
		return sp.Frames
	}
	return frames
}

// On every registered preset a run is bit-identical at GOMAXPROCS 1
// (every egress inline), 2 and 4 (every egress overlapped with the next
// frame, event frames included — swap-under-load swaps its decoder
// mid-run): per-frame stat deltas, the final report (ground-verify
// counters included) and every deterministic telemetry metric.
func TestPipelinedBitIdenticalToSequentialAllPresets(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			sp, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sp.Frames = identityFrames(sp)
			seqFrames, seqRep, seqTel, overlapped := procsRun(t, sp, 1)
			if overlapped != 0 {
				t.Fatalf("%d frames overlapped on one CPU", overlapped)
			}
			for _, procs := range []int{2, 4} {
				gotFrames, gotRep, gotTel, overlapped := procsRun(t, sp, procs)
				if overlapped == 0 {
					t.Fatalf("GOMAXPROCS %d: no frame overlapped", procs)
				}
				if len(seqFrames) != len(gotFrames) {
					t.Fatalf("GOMAXPROCS %d: frame counts diverged: %d vs %d", procs, len(seqFrames), len(gotFrames))
				}
				for i := range seqFrames {
					if fmt.Sprintf("%+v", seqFrames[i]) != fmt.Sprintf("%+v", gotFrames[i]) {
						t.Fatalf("GOMAXPROCS %d: frame %d stats diverged:\nseq: %+v\ngot: %+v", procs, i, seqFrames[i], gotFrames[i])
					}
				}
				if seqRep != gotRep {
					t.Fatalf("GOMAXPROCS %d: final report diverged:\nseq: %s\ngot: %s", procs, seqRep, gotRep)
				}
				for k, v := range seqTel {
					if gotTel[k] != v {
						t.Fatalf("GOMAXPROCS %d: telemetry metric %s diverged: seq %s, got %s", procs, k, v, gotTel[k])
					}
				}
			}
		})
	}
}

// The overlap follows the host width and nothing else: with more than
// one CPU every non-outage frame's egress overlaps its successor and is
// joined exactly once (the last one by Run's final drain); on one CPU
// none does.
func TestPipelineAutoFollowsGOMAXPROCS(t *testing.T) {
	sp, err := Preset("clean")
	if err != nil {
		t.Fatal(err)
	}
	sp.Frames = 6
	before := runtime.NumGoroutine()
	for procs, want := range map[int]int64{1: 0, 2: 6} {
		if _, _, _, overlapped := procsRun(t, sp, procs); overlapped != want {
			t.Fatalf("GOMAXPROCS %d: %d frames overlapped, want %d", procs, overlapped, want)
		}
	}
	// Run returns drained, so a finished session owns no goroutine.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// The spec-level switch is gone: a spec that still carries a "pipeline"
// key is rejected by the strict loader like any unknown field.
func TestPipelineModeValidation(t *testing.T) {
	data, err := json.Marshal(Clean())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(strings.NewReader(string(data))); err != nil {
		t.Fatalf("the clean preset does not round-trip: %v", err)
	}
	old := strings.Replace(string(data), `"traffic":{`, `"traffic":{"pipeline":"off",`, 1)
	if old == string(data) {
		t.Fatal("no traffic block to plant the key in")
	}
	_, err = Load(strings.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), `unknown field "pipeline"`) {
		t.Fatalf("spec with a pipeline key: %v", err)
	}
}
