package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// TestSmoke runs every workload at smoke length (8 timed frames, one
// 4-run x 2-frame campaign repetition, 3 traced frames) and checks that
// each emits every name BENCHMARK.json declares, in both driver forms.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	def, _, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	procs, err := resolveProcs()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range def.EndToEnd {
		if !name.MatchString(m.Name) {
			t.Errorf("end-to-end metric name %q", m.Name)
		}
	}
	for _, m := range def.PerLayer {
		if !name.MatchString(m.Name) {
			t.Errorf("per-layer metric name %q", m.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(def.Workloads), len(workloads))
	}
	for i, wd := range def.Workloads {
		if wd.Name != workloads[i].Name || !name.MatchString(wd.Name) {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the harness", i, wd.Name, workloads[i].Name)
		}
		t.Run(wd.Name, func(t *testing.T) {
			wr := runWorkload(wd.Name, runConfig{Seed: 1, Procs: procs, Smoke: true, OutDir: t.TempDir(),
				EndToEnd: true, PerLayer: true, Spawn: runChild})
			if !wr.Correct {
				t.Fatalf("correctness checks failed: %v", wr.Failures)
			}
			if wr.Attempted < 1 || wr.Failed != 0 || wr.SimDigest == "" {
				t.Errorf("attempted %d, failed %d, sim_digest %q", wr.Attempted, wr.Failed, wr.SimDigest)
			}
			for _, perLayer := range []bool{false, true} {
				var out bytes.Buffer
				if err := printDriverLine(&out, def, wr, perLayer); err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(out.Bytes(), &line); err != nil {
					t.Fatalf("driver line: %v", err)
				}
				for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := line[key]; !ok {
						t.Errorf("driver line has no %q", key)
					}
				}
				var metrics map[string]metric
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				want := len(def.EndToEnd)
				if perLayer {
					want = len(def.PerLayer)
				}
				if len(line) != 4 || len(metrics) != want {
					t.Errorf("driver line has %d keys and %d metrics, want 4 and %d", len(line), len(metrics), want)
				}
			}
		})
	}
}

// TestChecksRun feeds the correctness checks a report that violates each
// of them, and a violated check must void the run.
func TestChecksRun(t *testing.T) {
	good := &traffic.Report{OfferedCells: 10, GrantedCells: 8, DeniedCells: 2, UplinkBursts: 8, Verified: true,
		PerTerminal: []traffic.TerminalStats{{GrantedCells: 8}}}
	res := newChildResult("timed")
	checkLedger(good, res)
	if len(res.Failures) != 0 || res.Attempted != 8 || res.Failed != 0 {
		t.Fatalf("balanced report: %v, %d attempted, %d failed", res.Failures, res.Attempted, res.Failed)
	}
	bad := *good
	bad.DeniedCells, bad.UplinkBursts, bad.Verified, bad.DownlinkBitErrs = 1, 7, false, 3
	res = newChildResult("timed")
	checkLedger(&bad, res)
	if len(res.Failures) != 3 || res.Failed != 3 {
		t.Fatalf("unbalanced report: %d failures %v, %d failed", len(res.Failures), res.Failures, res.Failed)
	}

	wr := runWorkload("conv-clean", runConfig{Smoke: true, Spawn: func(childArgs) (*childResult, error) {
		r := newChildResult("timed")
		r.Attempted = 5
		r.failf("injected")
		return r, nil
	}})
	if wr.Correct || wr.Failed != wr.Attempted || wr.Attempted != 5 || !strings.Contains(strings.Join(wr.Failures, " "), "injected") {
		t.Fatalf("a violated check must count every operation as failed: %+v", wr)
	}
}

func TestBlockMedian(t *testing.T) {
	// One preempted block must not move the reported rate.
	m := blockMedian([]float64{80, 81, 79, 80.5, 40, 80.2, 79.8, 80.1, 80.3, 79.9}, "frames/s")
	if m.N != 10 || m.Lo != 40 || m.Hi != 81 || m.Value < 79.9 || m.Value > 80.2 {
		t.Fatalf("block median %+v", m)
	}
	if m := blockMedian(nil, "s"); m.Value != 0 || m.N != 0 {
		t.Fatalf("no samples: %+v", m)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median of an even count: %v", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 95); got != 5 {
		t.Fatalf("p95 of five: %v", got)
	}
}

func TestVerdicts(t *testing.T) {
	rate := endToEndDef{Name: "frames_per_s", Better: "higher", Bound: 0.07}
	cost := endToEndDef{Name: "cpu_ms_per_frame", Better: "lower", Bound: 0.10}
	tight := func(v float64) metric { return metric{Value: v, N: 10, Lo: v * 0.99, Hi: v * 1.01} }
	cases := []struct {
		def      endToEndDef
		old, cur metric
		want     string
	}{
		{rate, tight(80), tight(79), verdictWithin},
		{rate, tight(80), tight(70), verdictWorse},
		{rate, tight(80), tight(90), verdictBetter},
		{cost, tight(20), tight(23), verdictWorse},
		{cost, tight(20), tight(17), verdictBetter},
		{cost, tight(20), tight(21), verdictWithin},
		// A spread wider than the bound with overlapping ranges resolves nothing.
		{rate, metric{Value: 80, N: 10, Lo: 70, Hi: 84}, tight(72), verdictUnresolved},
		{rate, metric{Value: 80, N: 10, Lo: 70, Hi: 84}, tight(80), verdictUnresolved},
		// Wide but disjoint: every new block reads worse than every old one.
		{rate, metric{Value: 80, N: 10, Lo: 74, Hi: 84}, tight(60), verdictWorse},
		// A single reading has no recorded spread.
		{cost, metric{Value: 24, N: 1}, metric{Value: 30, N: 1}, verdictWorse},
	}
	for i, c := range cases {
		if got := verdict(c.def, c.old, c.cur); got != c.want {
			t.Errorf("case %d: %s %v -> %v: got %q, want %q", i, c.def.Name, c.old, c.cur, got, c.want)
		}
	}

	def := &definition{EndToEnd: []endToEndDef{rate}}
	res := func(v float64, failed int64) *result {
		return &result{Workloads: []workloadResult{{Name: "w", Attempted: 100, Failed: failed, SimDigest: "d",
			EndToEnd: map[string]metric{"frames_per_s": tight(v)}}}}
	}
	var out bytes.Buffer
	if !compareResults(&out, def, res(80, 0), res(79, 0)) {
		t.Errorf("within bound must pass:\n%s", out.String())
	}
	if compareResults(&out, def, res(80, 0), res(60, 0)) {
		t.Error("a worse metric must fail the comparison")
	}
	if compareResults(&out, def, res(80, 0), res(80, 1)) {
		t.Error("a higher share of failed operations must fail the comparison")
	}
	if !strings.Contains(out.String(), "of 80") {
		t.Errorf("every ratio is printed with its base:\n%s", out.String())
	}
}
