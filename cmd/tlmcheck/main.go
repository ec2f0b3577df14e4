// Command tlmcheck validates a streaming-telemetry feed — the JSONL
// flush lines trafficsim -telemetry and fleet -telemetry emit —
// against the schema contract, and optionally reconciles its cumulative
// counters against an end-of-run report. CI runs it over every scenario
// preset's smoke run, so a schema drift or a counter that diverges from
// the authoritative traffic.Report fails the build, not a dashboard
// three weeks later.
//
// Checks:
//   - every line parses as a telemetry.Line with no unknown fields
//   - seq increments from 0 with no gaps; frame tags never decrease
//   - counters are non-negative and never decrease across flushes
//     (cumulative contract), and keys never disappear (persistence)
//   - timer stats are internally consistent (count ≥ 0; when count > 0:
//     min ≤ mean ≤ max and min ≤ p50 ≤ p90 ≤ p99 ≤ max)
//   - with -report report.json: the final line's cumulative counters
//     equal the report exactly, top-level and per traffic class
//   - with -campaign CAMPAIGN_*.json: the campaign artifact replays
//     through campaign.ValidateArtifact — structural counts, derived
//     seeds, per-point statistics recomputed from the raw rows, gate
//     verdicts — after a strict (unknown-field-rejecting) decode
//
// Usage:
//
//	trafficsim -preset impaired -frames 4 -telemetry tl.jsonl -report-json rep.json
//	tlmcheck -telemetry tl.jsonl -report rep.json
//	fleet -preset ebn0-sweep -out CAMPAIGN_ebn0-sweep.json
//	tlmcheck -campaign CAMPAIGN_ebn0-sweep.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func main() {
	telemetryIn := flag.String("telemetry", "", "telemetry JSONL feed to validate")
	reportIn := flag.String("report", "", "end-of-run report JSON to reconcile the final counters against")
	campaignIn := flag.String("campaign", "", "CAMPAIGN_*.json artifact to validate instead of (or alongside) a telemetry feed")
	flag.Parse()
	if *telemetryIn == "" && *campaignIn == "" {
		log.Fatal("tlmcheck: -telemetry or -campaign is required")
	}

	if *campaignIn != "" {
		art, err := loadArtifact(*campaignIn)
		if err != nil {
			log.Fatal(err)
		}
		if err := campaign.ValidateArtifact(art); err != nil {
			log.Fatalf("tlmcheck: %s: %v", *campaignIn, err)
		}
		fmt.Printf("tlmcheck: %s ok (%d/%d runs, %d points, gates passed=%v)\n",
			*campaignIn, art.CompletedRuns, art.TotalRuns, len(art.Points), art.GatesPassed)
	}
	if *telemetryIn == "" {
		return
	}

	lines, err := loadLines(*telemetryIn)
	if err != nil {
		log.Fatal(err)
	}
	if len(lines) == 0 {
		log.Fatalf("tlmcheck: %s carries no flush lines", *telemetryIn)
	}
	if err := validate(lines); err != nil {
		log.Fatalf("tlmcheck: %s: %v", *telemetryIn, err)
	}
	if *reportIn != "" {
		rep, err := loadReport(*reportIn)
		if err != nil {
			log.Fatal(err)
		}
		if err := reconcile(lines[len(lines)-1], rep); err != nil {
			log.Fatalf("tlmcheck: final flush vs %s: %v", *reportIn, err)
		}
	}
	fmt.Printf("tlmcheck: %s ok (%d flush lines)\n", *telemetryIn, len(lines))
}

func loadLines(path string) ([]telemetry.Line, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []telemetry.Line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		var ln telemetry.Line
		if err := dec.Decode(&ln); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, len(lines)+1, err)
		}
		lines = append(lines, ln)
	}
	return lines, sc.Err()
}

// loadArtifact reads a campaign artifact strictly: unknown fields are
// schema drift, the same contract the telemetry lines get.
func loadArtifact(path string) (*campaign.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var art campaign.Artifact
	if err := dec.Decode(&art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing content after artifact", path)
	}
	return &art, nil
}

func loadReport(path string) (*traffic.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep traffic.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// validate applies the line-sequence and per-line invariants.
func validate(lines []telemetry.Line) error {
	var prev *telemetry.Line
	for i := range lines {
		ln := &lines[i]
		if ln.Seq != int64(i) {
			return fmt.Errorf("line %d: seq %d, want %d", i+1, ln.Seq, i)
		}
		for k, v := range ln.Counters {
			if v < 0 {
				return fmt.Errorf("line %d: counter %s negative (%d)", i+1, k, v)
			}
		}
		for k, st := range ln.Timers {
			if err := checkTimer(k, st); err != nil {
				return fmt.Errorf("line %d: %w", i+1, err)
			}
		}
		if prev != nil {
			if ln.Frame < prev.Frame {
				return fmt.Errorf("line %d: frame went backwards (%d after %d)", i+1, ln.Frame, prev.Frame)
			}
			for k, pv := range prev.Counters {
				v, ok := ln.Counters[k]
				if !ok {
					return fmt.Errorf("line %d: counter %s disappeared (persistent-key contract)", i+1, k)
				}
				if v < pv {
					return fmt.Errorf("line %d: counter %s regressed %d -> %d", i+1, k, pv, v)
				}
			}
			for k := range prev.Gauges {
				if _, ok := ln.Gauges[k]; !ok {
					return fmt.Errorf("line %d: gauge %s disappeared", i+1, k)
				}
			}
			for k := range prev.Timers {
				if _, ok := ln.Timers[k]; !ok {
					return fmt.Errorf("line %d: timer %s disappeared", i+1, k)
				}
			}
		}
		prev = ln
	}
	return nil
}

func checkTimer(name string, st telemetry.TimerStats) error {
	if st.Count < 0 || st.Dropped < 0 || st.Dropped > st.Count {
		return fmt.Errorf("timer %s: inconsistent count/dropped %d/%d", name, st.Count, st.Dropped)
	}
	if st.Count == 0 {
		return nil
	}
	if !(st.Min <= st.Mean && st.Mean <= st.Max) {
		return fmt.Errorf("timer %s: min/mean/max out of order (%g/%g/%g)", name, st.Min, st.Mean, st.Max)
	}
	if !(st.Min <= st.P50 && st.P50 <= st.P90 && st.P90 <= st.P99 && st.P99 <= st.Max) {
		return fmt.Errorf("timer %s: percentiles out of order (%g/%g/%g in [%g, %g])",
			name, st.P50, st.P90, st.P99, st.Min, st.Max)
	}
	return nil
}

// reconcile checks the final flush's cumulative counters against the
// authoritative end-of-run report, exactly.
func reconcile(final telemetry.Line, rep *traffic.Report) error {
	want := map[string]int{
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
	}
	for _, cs := range rep.PerClass {
		p := "class." + cs.Class + "."
		want[p+"routed_packets"] = cs.RoutedPackets
		want[p+"dropped_queue"] = cs.DroppedQueue
		want[p+"dropped_reencode"] = cs.DroppedReencode
		want[p+"delivered_packets"] = cs.DeliveredPackets
		want[p+"delivered_bits"] = cs.DeliveredBits
	}
	for k, w := range want {
		got, ok := final.Counters[k]
		if !ok {
			return fmt.Errorf("counter %s missing from the final flush", k)
		}
		if got != int64(w) {
			return fmt.Errorf("counter %s = %d, report says %d", k, got, w)
		}
	}
	return nil
}
