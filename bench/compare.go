package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies a metric's direction and bound to an old and a new
// reading. A reading whose recorded spread (block min-max, the campaign
// repetitions, the set-up processes) is wider than the bound cannot
// resolve a change of the bound's size: while the two ranges overlap the
// answer is unresolved, not unchanged.
func verdict(def endToEndDef, old, cur metric) string {
	wide := func(m metric) bool { return m.N > 1 && m.Value != 0 && (m.Hi-m.Lo)/m.Value > def.Bound }
	if (wide(old) || wide(cur)) && old.Lo <= cur.Hi && cur.Lo <= old.Hi {
		return verdictUnresolved
	}
	if old.Value == 0 {
		return verdictWithin
	}
	worse := (cur.Value - old.Value) / old.Value // share of the base by which the new reading is worse
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return verdictWorse
	case worse < -def.Bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareResults prints one row per workload with, per end-to-end
// metric, the new reading as a ratio of the old one (its base) and the
// verdict. It reports whether the comparison passes: no metric worse,
// no workload with a higher share of failed operations.
func compareResults(w io.Writer, def *definition, old, cur *result) bool {
	oldBy := map[string]workloadResult{}
	for _, wr := range old.Workloads {
		oldBy[wr.Name] = wr
	}
	pass := true
	for _, wr := range cur.Workloads {
		base, ok := oldBy[wr.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s only in the new result\n", wr.Name)
			continue
		}
		fmt.Fprintf(w, "%-16s", wr.Name)
		for _, d := range def.EndToEnd {
			o, c := base.EndToEnd[d.Name], wr.EndToEnd[d.Name]
			v := verdict(d, o, c)
			if v == verdictWorse {
				pass = false
			}
			ratio := 0.0
			if o.Value != 0 {
				ratio = c.Value / o.Value
			}
			fmt.Fprintf(w, " | %s %.4gx of %.6g %s: %s", d.Name, ratio, o.Value, d.Unit, v)
		}
		failedShare := func(r workloadResult) float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) }
		if fo, fc := failedShare(base), failedShare(wr); fc > fo {
			pass = false
			fmt.Fprintf(w, " | failed operations %d of %d, were %d of %d: worse", wr.Failed, wr.Attempted, base.Failed, base.Attempted)
		}
		if old.Provenance.Seed == cur.Provenance.Seed {
			same := "same"
			if base.SimDigest != wr.SimDigest {
				same = "DIFFERS"
			}
			fmt.Fprintf(w, " | sim_digest %s", same)
		}
		fmt.Fprintln(w)
	}
	return pass
}

// compareMain is `bench -compare old.json new.json`; it returns the exit code.
func compareMain(oldPath, newPath string) int {
	def, _, err := loadDefinition()
	var old, cur *result
	if err == nil {
		old, err = readResult(oldPath)
	}
	if err == nil {
		cur, err = readResult(newPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, side := range []struct {
		tag, path string
		p         provenance
	}{{"old", oldPath, old.Provenance}, {"new", newPath, cur.Provenance}} {
		fmt.Printf("%s: %s  commit %s  seed %d  GOMAXPROCS %d  %s\n", side.tag, side.path, side.p.Commit, side.p.Seed, side.p.GOMAXPROCS, side.p.CPUModel)
	}
	if !compareResults(os.Stdout, def, old, cur) {
		return 1
	}
	return 0
}
