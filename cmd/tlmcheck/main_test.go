package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// The corpus: the 2-frame clean preset, flushed every frame, and its
// end-of-run report (trafficsim -preset clean -frames 2 -flush-every 1).
func corpus(t testing.TB) (feed, report []byte) {
	t.Helper()
	feed, err := os.ReadFile("testdata/clean.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	report, err = os.ReadFile("testdata/clean.json")
	if err != nil {
		t.Fatal(err)
	}
	return feed, report
}

// TestCheckFeed drives the whole check — load, validate, reconcile —
// over the corpus feed with one defect planted per case; the untouched
// feed is the accepted one.
func TestCheckFeed(t *testing.T) {
	feed, report := corpus(t)
	cases := []struct {
		name   string
		line   func(lines []telemetry.Line) // edits the decoded feed
		report func(rep map[string]any)     // edits the decoded report
		want   string                       // "" = accepted
	}{
		{name: "accepted"},
		{name: "seq gap", want: "seq 2, want 1",
			line: func(l []telemetry.Line) { l[1].Seq = 2 }},
		{name: "frame backwards", want: "frame went backwards",
			line: func(l []telemetry.Line) { l[1].Frame = -1 }},
		{name: "regressed counter", want: "counter delivered_bits regressed",
			line: func(l []telemetry.Line) { l[1].Counters["delivered_bits"] = l[0].Counters["delivered_bits"] - 1 }},
		{name: "negative counter", want: "counter events negative",
			line: func(l []telemetry.Line) { l[0].Counters["events"] = -1 }},
		{name: "vanished counter", want: "counter frames disappeared",
			line: func(l []telemetry.Line) { delete(l[1].Counters, "frames") }},
		{name: "vanished gauge", want: "gauge queue.beam0.depth disappeared",
			line: func(l []telemetry.Line) { delete(l[1].Gauges, "queue.beam0.depth") }},
		{name: "vanished timer", want: "timer engine.stage.receive_ns disappeared",
			line: func(l []telemetry.Line) { delete(l[1].Timers, "engine.stage.receive_ns") }},
		{name: "timer order", want: "percentiles out of order",
			line: func(l []telemetry.Line) {
				st := l[0].Timers["engine.stage.receive_ns"]
				st.P50 = st.Max + 1
				l[0].Timers["engine.stage.receive_ns"] = st
			}},
		{name: "timer dropped past count", want: "inconsistent count/dropped",
			line: func(l []telemetry.Line) {
				st := l[0].Timers["engine.stage.receive_ns"]
				st.Dropped = st.Count + 1
				l[0].Timers["engine.stage.receive_ns"] = st
			}},
		{name: "unbalanced ledger", want: "ledger: offered_cells = ",
			line: func(l []telemetry.Line) { l[0].Counters["denied_cells"]++; l[1].Counters["denied_cells"]++ }},
		{name: "ledger term missing", want: "has no throttled_cells beside it",
			line: func(l []telemetry.Line) { delete(l[0].Counters, "throttled_cells") }},
		{name: "missing counter", want: "uplink_bursts missing from the final flush",
			line: func(l []telemetry.Line) {
				delete(l[0].Counters, "uplink_bursts")
				delete(l[1].Counters, "uplink_bursts")
			}},
		{name: "mismatched counter", want: "class.be.routed_packets = ",
			line: func(l []telemetry.Line) { l[1].Counters["class.be.routed_packets"]++ }},
		{name: "mismatched report", want: "downlink_lost = 0, report says 3",
			report: func(rep map[string]any) { rep["downlink_lost"] = 3 }},
		{name: "unknown report field", want: `unknown field "granted_cels"`,
			report: func(rep map[string]any) { rep["granted_cels"] = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines, err := loadLines(bytes.NewReader(feed))
			if err != nil {
				t.Fatal(err)
			}
			var rep map[string]any
			if err := json.Unmarshal(report, &rep); err != nil {
				t.Fatal(err)
			}
			if tc.line != nil {
				tc.line(lines)
			}
			if tc.report != nil {
				tc.report(rep)
			}
			var f bytes.Buffer
			enc := json.NewEncoder(&f)
			for _, ln := range lines {
				if err := enc.Encode(ln); err != nil {
					t.Fatal(err)
				}
			}
			r, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			n, err := checkFeed(&f, bytes.NewReader(r))
			switch {
			case tc.want == "" && (err != nil || n != len(lines)):
				t.Fatalf("clean feed: %d lines, err %v", n, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// Malformed input is an error at load, with the line it sits on.
func TestCheckFeedRejectsMalformedInput(t *testing.T) {
	feed, report := corpus(t)
	for name, tc := range map[string]struct{ feed, report, want string }{
		"empty feed":          {"\n\n", string(report), "no flush lines"},
		"unknown line field":  {`{"seq":0,"frame":0,"colour":1}`, "", `line 1: json: unknown field "colour"`},
		"two values a line":   {`{"seq":0} {"seq":1}`, "", "line 1: trailing content"},
		"truncated line":      {string(feed[:len(feed)/3]), "", "line 1: unexpected EOF"},
		"line trailing brace": {`{"seq":0} }`, "", "line 1: trailing content"},
		"report trailing":     {string(feed), string(report) + "{}", "report: trailing content"},
		"report trailing ]":   {string(feed), string(report) + "]", "report: trailing content"},
		"report trailing }":   {string(feed), string(report) + "}", "report: trailing content"},
		"report not JSON":     {string(feed), "frames: 2", "report: invalid character"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := checkFeed(strings.NewReader(tc.feed), strings.NewReader(tc.report))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// A feed without the admission counters (fleet's) passes the ledger
// check vacuously, and population rows are held to it like the top
// level.
func TestCheckLedgerScopes(t *testing.T) {
	if err := checkLedger(map[string]int64{"runs": 4, "gates_failed": 0}); err != nil {
		t.Fatalf("feed with no admission counters: %v", err)
	}
	pop := map[string]int64{
		"pop.web.offered_cells": 9, "pop.web.granted_cells": 4,
		"pop.web.denied_cells": 3, "pop.web.throttled_cells": 2,
	}
	if err := checkLedger(pop); err != nil {
		t.Fatalf("balanced population row: %v", err)
	}
	pop["pop.web.granted_cells"] = 5
	if err := checkLedger(pop); err == nil || !strings.Contains(err.Error(), "pop.web.offered_cells = 9") {
		t.Fatalf("unbalanced population row: %v", err)
	}
}

// FuzzFeed: arbitrary feed and report bytes through load → validate →
// reconcile end in an error or an ok, never a panic.
func FuzzFeed(f *testing.F) {
	feed, report := corpus(f)
	f.Add(feed, report)
	f.Add(feed, []byte(nil))
	f.Add(feed[:len(feed)/2], report)
	f.Add([]byte(`{"seq":0,"frame":0,"counters":{"offered_cells":1}}`), []byte(`{"per_class":[{"class":"be"}],"per_population":[{"name":"x"}]}`))
	f.Fuzz(func(t *testing.T, feed, report []byte) {
		n, err := checkFeed(bytes.NewReader(feed), bytes.NewReader(report))
		if err == nil && n == 0 {
			t.Fatal("accepted a feed with no lines")
		}
	})
}

// FuzzArtifact: arbitrary bytes through the -campaign path (strict
// decode, then ValidateArtifact) end in an error or an ok, never a
// panic, and an accepted artifact re-encodes to one that is accepted
// again. The seed is the artifact of a tiny campaign run here.
func FuzzArtifact(f *testing.F) {
	off, zero := false, 0.0
	sp := campaign.Spec{Name: "fuzz-seed", BasePreset: "clean", Frames: 1, Seed: 7, RunsPerPoint: 2, Verify: &off,
		Axes:     []campaign.AxisSpec{{Kind: "ebn0", Values: []any{6.0, 9.0}}},
		Reducers: []string{"ber", "drops"}, Gates: []campaign.Gate{{MaxDrops: &zero}}}
	a, err := campaign.Execute(context.Background(), &sp, campaign.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		f.Fatal(err)
	}
	accept := func(data []byte) (*campaign.Artifact, error) {
		var a campaign.Artifact
		if err := decodeStrict(bytes.NewReader(data), &a); err != nil {
			return nil, err
		}
		return &a, campaign.ValidateArtifact(&a)
	}
	if _, err := accept(data); err != nil {
		f.Fatalf("seed artifact refused: %v", err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(`{"runs_per_point":1,"total_runs":1,"points":[{}],"reducers":["ber"],"cancelled":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := accept(data)
		if err != nil {
			return
		}
		out, err := a.Encode()
		if err != nil {
			t.Fatalf("accepted artifact does not encode: %v", err)
		}
		if _, err := accept(out); err != nil {
			t.Fatalf("re-encoded artifact refused: %v\n%s", err, out)
		}
	})
}
