package traffic

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/payload"
	"repro/internal/telemetry"
)

// The engine's step contract (DESIGN §12) holds at every core count:
// tests pick the width the way users do, with GOMAXPROCS.

// atProcs sets GOMAXPROCS for the rest of the test.
func atProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// stepTestSetup builds the engine shape the step tests share:
// backpressure admission (the scheduler-fill ordering dependency the
// join must preserve), ground verification on a carrier plan spaced
// tighter than a burst is wide (so the deferred verify delta is
// non-zero and its fold observable), uplink noise and one impaired
// channel (real demod work on both half-frames).
func stepTestSetup(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 3)
	cfg.Plan = frontend.CarrierPlan{Carriers: 2, Spacing: 0.045, Decim: 4}
	cfg.Seed = 23
	cfg.QueueDepth = 4
	cfg.Policy = Backpressure
	cfg.Verify = true
	cfg.EbN0dB = 9
	return newEngine(t, cfg, []Terminal{
		{ID: "t0", Beam: 0, Model: CBR{Cells: 2}},
		{ID: "t1", Beam: 0, Model: OnOff{On: 2, Off: 1, Cells: 2}},
		{ID: "t2", Beam: 1, Model: CBR{Cells: 1}, Channel: &ChannelProfile{CFO: 0.02}},
	}, "conv-r1/2-k9")
}

// reportJSON canonicalizes a report for bit-identity comparison; wall
// time is the one legitimately nondeterministic field.
func reportJSON(t *testing.T, r *Report) string {
	t.Helper()
	r.WallSeconds = 0
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sequentialReport runs the shared engine shape on one CPU and returns
// the reference report.
func sequentialReport(t *testing.T, frames int) string {
	t.Helper()
	atProcs(t, 1)
	seq := stepTestSetup(t)
	if err := seq.RunFrames(frames); err != nil {
		t.Fatal(err)
	}
	rep := seq.Report()
	if rep.DownlinkBitErrs+rep.DownlinkLost == 0 {
		t.Fatal("the tight carrier plan left the verify counters at zero; the fold would be unobservable")
	}
	return reportJSON(t, rep)
}

// The contract in one test: stepping on two and four CPUs — including a
// mid-run drain-and-resume — produces bit-for-bit the report of one CPU,
// ground-verify counters included.
func TestOverlapBitIdenticalToInline(t *testing.T) {
	const frames = 12
	want := sequentialReport(t, frames)
	for _, procs := range []int{2, 4} {
		atProcs(t, procs)
		e := stepTestSetup(t)
		for f := 0; f < frames; f++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if f == frames/2 {
				// A mid-run drain (what the session does before events),
				// even a repeated one, must not disturb the run.
				for i := 0; i < 2; i++ {
					if err := e.Drain(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, e.Report()); got != want {
			t.Fatalf("GOMAXPROCS %d report diverged from sequential\nseq: %s\ngot: %s", procs, want, got)
		}
	}
}

// Verify counters are deferred one frame: after Step(N) the in-flight
// frame's downlink outcome is not yet folded, and Drain catches the
// report up exactly.
func TestDrainFoldsVerify(t *testing.T) {
	const frames = 6
	atProcs(t, 1)
	seq := stepTestSetup(t)
	if err := seq.RunFrames(frames - 1); err != nil {
		t.Fatal(err)
	}
	lagged := seq.Report()
	if err := seq.RunFrames(1); err != nil {
		t.Fatal(err)
	}
	final := seq.Report()
	if final.DownlinkLost == lagged.DownlinkLost && final.DownlinkBitErrs == lagged.DownlinkBitErrs {
		t.Fatal("the last frame moved no verify counter; the lag would be unobservable")
	}

	atProcs(t, 2)
	e := stepTestSetup(t)
	for f := 0; f < frames; f++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Report(); m.DownlinkLost != lagged.DownlinkLost || m.DownlinkBitErrs != lagged.DownlinkBitErrs {
		t.Fatalf("verify counters before the drain: lost/errs %d/%d, want the %d-frame figures %d/%d",
			m.DownlinkLost, m.DownlinkBitErrs, frames-1, lagged.DownlinkLost, lagged.DownlinkBitErrs)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if m := e.Report(); m.DownlinkLost != final.DownlinkLost || m.DownlinkBitErrs != final.DownlinkBitErrs {
		t.Fatalf("verify counters after the drain: lost/errs %d/%d, sequential %d/%d",
			m.DownlinkLost, m.DownlinkBitErrs, final.DownlinkLost, final.DownlinkBitErrs)
	}
}

// An outage window mid-run (coding device powered off) runs no stage
// and joins nothing: the previous frame's egress stays in flight across
// it at every core count, and the run is bit-identical at GOMAXPROCS 1
// and 2 under the same fault. The device is switched only once the
// in-flight egress has finished its last stage (the verify timer has
// fired), so the mutation races nothing although the frame is still
// unjoined.
func TestOutageFramesLeaveEgressInFlight(t *testing.T) {
	outage := func(procs int) *Report {
		t.Helper()
		atProcs(t, procs)
		e := stepTestSetup(t)
		st := NewStageTimers(telemetry.NewRegistry())
		e.SetStageTimers(st)
		var dev string
		for _, d := range e.pl.Chipset().DevicesFor(payload.FuncCoding) {
			dev = d
		}
		d, _ := e.pl.Chipset().Device(dev)
		run := func(n int) {
			for i := 0; i < n; i++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		run(3)
		for deadline := time.Now().Add(10 * time.Second); st[StageVerify].Count() < 3; {
			if time.Now().After(deadline) {
				t.Fatal("egress of frame 2 never finished")
			}
			time.Sleep(time.Millisecond)
		}
		d.PowerOff()
		run(2)
		if !e.inflight {
			t.Fatalf("GOMAXPROCS %d: no egress in flight across the outage", procs)
		}
		d.PowerOn()
		run(3)
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return e.Report()
	}

	seqRep, ovlRep := outage(1), outage(2)
	if ovlRep.OutageFrames != 2 {
		t.Fatalf("outage frames %d, want 2", ovlRep.OutageFrames)
	}
	if want, got := reportJSON(t, seqRep), reportJSON(t, ovlRep); got != want {
		t.Fatalf("outage run diverged\nseq: %s\ngot: %s", want, got)
	}
}

// The occupancy timers record one (stall, overlap) pair per joined
// frame at every core count.
func TestOverlapTimers(t *testing.T) {
	const frames = 5
	for _, procs := range []int{1, 2} {
		atProcs(t, procs)
		e := stepTestSetup(t)
		st := NewStageTimers(telemetry.NewRegistry())
		e.SetStageTimers(st)
		if err := e.RunFrames(frames); err != nil {
			t.Fatal(err)
		}
		if st[StageStall].Count() != frames || st[StageOverlap].Count() != frames {
			t.Fatalf("GOMAXPROCS %d: %d stall / %d overlap observations, want %d",
				procs, st[StageStall].Count(), st[StageOverlap].Count(), frames)
		}
		if got := st[StageTransmit].Count(); got != frames {
			t.Fatalf("GOMAXPROCS %d: %d transmit observations, want %d", procs, got, frames)
		}
	}
}

// A failed egress surfaces on the next Step at every core count, stays
// sticky through every later Step, RunFrames and Drain,
// and leaves no goroutine behind. The slot here is shorter than a
// burst, so every frame's transmit fails; the population is idle, so
// the uplink never notices.
func TestEgressFailureStickyNoLeak(t *testing.T) {
	for _, procs := range []int{1, 2} {
		atProcs(t, procs)
		before := runtime.NumGoroutine()
		cfg := DefaultConfig()
		cfg.Frame = smallFrame(2, 2)
		cfg.Frame.SlotSymbols = 100
		e := newEngine(t, cfg, []Terminal{{ID: "idle", Beam: 0, Model: CBR{}}}, "uncoded")
		if err := e.Step(); err != nil {
			t.Fatalf("GOMAXPROCS %d: first Step error %v", procs, err)
		}
		err := e.Step()
		if err == nil {
			t.Fatal("the failed egress did not surface on the next Step")
		}
		frame := e.Frame()
		if got := e.Step(); got != err {
			t.Fatalf("later Step returned %v, want the sticky %v", got, err)
		}
		if got := e.RunFrames(3); got != err {
			t.Fatalf("RunFrames returned %v, want the sticky %v", got, err)
		}
		if e.Frame() != frame {
			t.Fatalf("a failed engine kept stepping: frame %d -> %d", frame, e.Frame())
		}
		if got := e.Drain(); got != err {
			t.Fatalf("Drain returned %v, want the sticky %v", got, err)
		}
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS %d: %d goroutines after Drain, %d before the engine existed",
					procs, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Every exported mutator may follow a Step immediately: it drains the
// in-flight egress itself. Run under -race this is the proof that no
// mutator touches state the egress goroutine still reads; the report must
// also match the same call sequence on one CPU.
func TestStepThenMutateDrains(t *testing.T) {
	script := func(procs int) string {
		t.Helper()
		atProcs(t, procs)
		e := stepTestSetup(t)
		mutators := []func() error{
			func() error { return e.AddTerminal(Terminal{ID: "t3", Beam: 1, Model: CBR{Cells: 1}}) },
			func() error { return e.SetTerminalChannel("t3", &ChannelProfile{CFO: -0.03}) },
			func() error { return e.SetTerminalClass("t0", 1) },
			func() error { return e.SetQueueDepth(6) },
			func() error { e.SetQueuePolicy(DropTail); return nil },
			func() error { return e.SetScheduler(e.Config().Scheduler) },
			func() error { e.SetStageTimers(NewStageTimers(telemetry.NewRegistry())); return nil },
			func() error { return e.RemoveTerminal("t3") },
		}
		for _, mutate := range mutators {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if err := mutate(); err != nil {
				t.Fatal(err)
			}
			if e.inflight {
				t.Fatal("a mutator returned with the engine undrained")
			}
		}
		if err := e.RunFrames(2); err != nil {
			t.Fatal(err)
		}
		return reportJSON(t, e.Report())
	}
	if seq, ovl := script(1), script(2); seq != ovl {
		t.Fatalf("mutated run diverged\nseq: %s\novl: %s", seq, ovl)
	}
}

// Mid-run reports are bit-identical across core counts: after every Step
// the report — its two ground-verify counters lagging by the in-flight
// frame — is the same at GOMAXPROCS 1, 2 and 4.
func TestMidRunReportsIdenticalAcrossGOMAXPROCS(t *testing.T) {
	const frames = 12
	run := func(procs int) []string {
		t.Helper()
		atProcs(t, procs)
		e := stepTestSetup(t)
		reps := make([]string, frames)
		for f := range reps {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			reps[f] = reportJSON(t, e.Report())
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return reps
	}
	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		diverged := 0
		for f := range want {
			if got[f] != want[f] {
				diverged++
				t.Errorf("GOMAXPROCS %d: frame %d report diverged\nwant: %s\ngot:  %s", procs, f, want[f], got[f])
			}
		}
		if diverged > 0 {
			t.Fatalf("GOMAXPROCS %d: %d of %d mid-run reports diverged from GOMAXPROCS 1", procs, diverged, frames)
		}
	}
}
