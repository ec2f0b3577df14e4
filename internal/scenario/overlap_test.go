package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/traffic"
)

// procsRun executes a spec to completion at the given GOMAXPROCS,
// chosen here the way users choose it, with the telemetry observer
// flushing every frame, and returns the per-frame stat sequence, the
// final report (wall time zeroed — the only nondeterministic field),
// every frame's feed line reduced to its deterministic part, and how
// many frames' egress overlapped the next frame. The first three are
// the bit-identity surface the engine promises across core counts. A
// feed line's counters are the walk over that frame's report()
// snapshot, so comparing lines compares every counter of the report —
// top level, per class, per population, the two ground-verify counters
// lagging by the frame in flight — at every frame, beside the
// queue-depth gauges. Timers (wall-clock samples) and the runtime
// sample (heap, GC, goroutines) are excluded.
func procsRun(t *testing.T, sp Spec, procs int) ([]FrameStats, string, []string, int64) {
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
	sess.AddObserver(ledgerObserver(t, sess))
	var feed bytes.Buffer
	tel := NewTelemetryObserver(&feed, TelemetryConfig{FlushEvery: 1})
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
	decoded := decodeTelemetry(t, feed.String())
	lines := make([]string, len(decoded))
	for i, ln := range decoded {
		maps.DeleteFunc(ln.Counters, isRuntimeKey)
		maps.DeleteFunc(ln.Gauges, isRuntimeKey)
		lines[i] = fmt.Sprintf("frame %d counters %v gauges %v", ln.Frame, ln.Counters, ln.Gauges)
	}
	overlapped := tel.reg.Timer("engine.pipeline.overlap_ns").Count()
	return frames, string(data), lines, overlapped
}

// isRuntimeKey reports whether a feed key belongs to the runtime sample.
func isRuntimeKey[V any](key string, _ V) bool { return strings.HasPrefix(key, "runtime.") }

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

// On every registered preset a run is bit-identical at GOMAXPROCS 1, 2
// and 4, event frames included (swap-under-load swaps its decoder
// mid-run): per-frame stats, the final report (ground-verify counters
// included) and every deterministic metric of every frame's feed line.
func TestPipelinedBitIdenticalToSequentialAllPresets(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			sp, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sp.Frames = identityFrames(sp)
			seqFrames, seqRep, seqTel, _ := procsRun(t, sp, 1)
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
				if len(seqTel) != sp.Frames || len(gotTel) != len(seqTel) {
					t.Fatalf("GOMAXPROCS %d: %d and %d feed lines over %d frames", procs, len(seqTel), len(gotTel), sp.Frames)
				}
				for i := range seqTel {
					if gotTel[i] != seqTel[i] {
						t.Fatalf("GOMAXPROCS %d: feed line %d diverged:\nseq: %s\ngot: %s", procs, i, seqTel[i], gotTel[i])
					}
				}
			}
		})
	}
}

// The overlap does not depend on the host width: at every GOMAXPROCS
// every non-outage frame's egress overlaps its successor and is joined
// exactly once (the last one by Run's final drain).
func TestPipelineAutoFollowsGOMAXPROCS(t *testing.T) {
	sp, err := Preset("clean")
	if err != nil {
		t.Fatal(err)
	}
	sp.Frames = 6
	before := runtime.NumGoroutine()
	for procs, want := range map[int]int64{1: 6, 2: 6} {
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
