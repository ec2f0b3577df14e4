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
//   - on every line that carries the admission counters, top level and
//     per pop.<name>.: offered = granted + denied + throttled
//   - with -report report.json (decoded strictly, like the lines): the
//     final line carries every integer field of the report — top level,
//     per class, per population; the names are the report's own JSON
//     tags, walked by traffic.Report.Counters — with the report's value
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
	"errors"
	"flag"
	"fmt"
	"io"
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
		var art campaign.Artifact
		if err := decodeFile(*campaignIn, &art); err != nil {
			log.Fatalf("tlmcheck: %v", err)
		}
		if err := campaign.ValidateArtifact(&art); err != nil {
			log.Fatalf("tlmcheck: %s: %v", *campaignIn, err)
		}
		fmt.Printf("tlmcheck: %s ok (%d/%d runs, %d points, gates passed=%v)\n",
			*campaignIn, art.CompletedRuns, art.TotalRuns, len(art.Points), art.GatesPassed)
	}
	if *telemetryIn == "" {
		return
	}

	feed, err := os.Open(*telemetryIn)
	if err != nil {
		log.Fatalf("tlmcheck: %v", err)
	}
	defer feed.Close()
	var report io.Reader
	if *reportIn != "" {
		f, err := os.Open(*reportIn)
		if err != nil {
			log.Fatalf("tlmcheck: %v", err)
		}
		defer f.Close()
		report = f
	}
	n, err := checkFeed(feed, report)
	if err != nil {
		log.Fatalf("tlmcheck: %s: %v", *telemetryIn, err)
	}
	fmt.Printf("tlmcheck: %s ok (%d flush lines)\n", *telemetryIn, n)
}

// checkFeed is the whole feed check — load, validate, and with a report
// reconcile the final line against it — and returns the line count.
func checkFeed(feed, report io.Reader) (int, error) {
	lines, err := loadLines(feed)
	if err != nil {
		return 0, err
	}
	if len(lines) == 0 {
		return 0, errors.New("no flush lines")
	}
	if err := validate(lines); err != nil {
		return 0, err
	}
	if report != nil {
		var rep traffic.Report
		if err := decodeStrict(report, &rep); err != nil {
			return 0, fmt.Errorf("report: %w", err)
		}
		if err := reconcile(lines[len(lines)-1], &rep); err != nil {
			return 0, fmt.Errorf("final flush vs report: %w", err)
		}
	}
	return len(lines), nil
}

// decodeStrict reads exactly one JSON value into v: unknown fields are
// schema drift and trailing content is a malformed file, for flush
// lines, reports and campaign artifacts alike.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing content")
	}
	return nil
}

func decodeFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := decodeStrict(f, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadLines(r io.Reader) ([]telemetry.Line, error) {
	var lines []telemetry.Line
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var ln telemetry.Line
		if err := decodeStrict(bytes.NewReader(text), &ln); err != nil {
			return nil, fmt.Errorf("line %d: %w", len(lines)+1, err)
		}
		lines = append(lines, ln)
	}
	return lines, sc.Err()
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
		if err := checkLedger(ln.Counters); err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
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

// ledger is the feed names of the admission identity's terms, offered
// first, as the report's own walk spells them: the report's JSON tags
// stay the one list of counter names.
var ledger = func() (names [4]string) {
	terms := traffic.Report{OfferedCells: 1, GrantedCells: 2, DeniedCells: 3, ThrottledCells: 4}
	terms.Counters(func(name string, v int64, _ bool) {
		if v > 0 {
			names[v-1] = name
		}
	})
	return names
}()

// checkLedger holds one line's counters to offered = granted + denied +
// throttled wherever the line carries an offered counter: top level and
// under each pop.<name>. prefix (a fleet feed carries none and passes).
func checkLedger(counters map[string]int64) error {
	for key, offered := range counters {
		prefix, ok := strings.CutSuffix(key, ledger[0])
		if !ok {
			continue
		}
		sum := int64(0)
		for _, term := range ledger[1:] {
			v, ok := counters[prefix+term]
			if !ok {
				return fmt.Errorf("ledger: counter %s has no %s beside it", key, prefix+term)
			}
			sum += v
		}
		if offered != sum {
			return fmt.Errorf("ledger: %s = %d, but granted + denied + throttled = %d", key, offered, sum)
		}
	}
	return nil
}

// reconcile checks the final flush against the authoritative end-of-run
// report, exactly: every integer field the report's walk names.
func reconcile(final telemetry.Line, rep *traffic.Report) (err error) {
	rep.Counters(func(name string, want int64, gauge bool) {
		got, ok := final.Counters[name]
		if gauge {
			var g float64
			g, ok = final.Gauges[name]
			got = int64(g)
		}
		switch {
		case err != nil:
		case !ok:
			err = fmt.Errorf("%s missing from the final flush", name)
		case got != want:
			err = fmt.Errorf("%s = %d, report says %d", name, got, want)
		}
	})
	return err
}
