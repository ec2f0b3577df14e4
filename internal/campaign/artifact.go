package campaign

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/stats"
)

// Provenance records where an artifact came from. It is the only part
// of the artifact that is not a pure function of the spec, so the
// runner leaves it zero and the driver stamps it just before writing —
// the determinism tests compare artifacts with Provenance zeroed.
type Provenance struct {
	Generated string `json:"generated,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	GitCommit string `json:"git_commit,omitempty"`
}

// NewProvenance stamps the current time, toolchain, and git commit (or
// "unknown" outside a repo).
func NewProvenance() Provenance {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Provenance{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GitCommit: commit,
	}
}

// GateResult is one gate's verdict at one grid point.
type GateResult struct {
	Gate   Gate    `json:"gate"`
	Stat   string  `json:"stat"`  // reducer the threshold reads
	Value  float64 `json:"value"` // the observed extreme the gate compared
	Bound  float64 `json:"bound"` // the threshold
	Op     string  `json:"op"`    // "<=" or ">="
	Passed bool    `json:"passed"`
}

// PointStats is the reduced view of one grid point: the per-run scalars
// of every reducer summarized into distribution statistics, plus the
// gate verdicts.
type PointStats struct {
	Index  int                      `json:"index"`
	Label  string                   `json:"label"`
	Coords []Coord                  `json:"coords"`
	Runs   int                      `json:"runs"` // completed runs folded here
	Stats  map[string]stats.Summary `json:"stats"`
	Gates  []GateResult             `json:"gates,omitempty"`
	Passed bool                     `json:"passed"`
}

// RunRow is one run's row in the artifact: its derived seed and the raw
// reducer scalars, or the error that felled it. Cancelled runs never
// get a row — a partial artifact holds completed work only.
type RunRow struct {
	Index   int                `json:"index"`
	Point   int                `json:"point"`
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// Artifact is the campaign result wire form: spec echo, provenance,
// per-point distribution statistics with gate verdicts, and the raw
// per-run rows the statistics reduce. Everything outside Provenance is
// deterministic — no wall-clock figures anywhere.
type Artifact struct {
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Provenance  Provenance `json:"provenance"`

	Seed         int64      `json:"seed"`
	Base         string     `json:"base"` // preset name or "inline"
	Frames       int        `json:"frames"`
	RunsPerPoint int        `json:"runs_per_point"`
	Axes         []AxisSpec `json:"axes,omitempty"`
	Reducers     []string   `json:"reducers"`

	TotalRuns     int  `json:"total_runs"`
	CompletedRuns int  `json:"completed_runs"`
	FailedRuns    int  `json:"failed_runs"`
	Cancelled     bool `json:"cancelled"`
	GatesPassed   bool `json:"gates_passed"`

	Points []PointStats `json:"points"`
	Runs   []RunRow     `json:"runs"`
}

// Encode renders the artifact as indented JSON with a trailing newline
// — the CAMPAIGN_*.json file form.
func (a *Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// gateChecks unrolls one gate into its per-threshold checks against one
// point's summaries.
func gateChecks(g Gate, st map[string]stats.Summary) []GateResult {
	var out []GateResult
	if g.MaxBER != nil {
		out = append(out, GateResult{Gate: g, Stat: "ber", Op: "<=",
			Value: st["ber"].Max, Bound: *g.MaxBER, Passed: st["ber"].Max <= *g.MaxBER})
	}
	if g.MinGoodput != nil {
		out = append(out, GateResult{Gate: g, Stat: "goodput", Op: ">=",
			Value: st["goodput"].Min, Bound: *g.MinGoodput, Passed: st["goodput"].Min >= *g.MinGoodput})
	}
	if g.MaxDrops != nil {
		out = append(out, GateResult{Gate: g, Stat: "drops", Op: "<=",
			Value: st["drops"].Max, Bound: *g.MaxDrops, Passed: st["drops"].Max <= *g.MaxDrops})
	}
	if g.MaxLatency != nil {
		out = append(out, GateResult{Gate: g, Stat: "latency", Op: "<=",
			Value: st["latency"].Max, Bound: *g.MaxLatency, Passed: st["latency"].Max <= *g.MaxLatency})
	}
	return out
}

// gateApplies reports whether a gate's where-filter admits a point's
// coordinates. Values compare by their decoded-JSON forms (float64,
// string), which both sides share.
func gateApplies(g Gate, coords []Coord) bool {
	for kind, allowed := range g.Where {
		if !slices.ContainsFunc(coords, func(c Coord) bool { return c.Kind == kind && slices.Contains(allowed, c.Value) }) {
			return false
		}
	}
	return true
}

// evaluateGates fills one point's gate verdicts from the spec's gate
// list. Points with no completed runs are skipped by the caller — an
// empty distribution can neither pass nor fail a threshold honestly.
func evaluateGates(gates []Gate, pt *PointStats) {
	pt.Passed = true
	for _, g := range gates {
		if !gateApplies(g, pt.Coords) {
			continue
		}
		checks := gateChecks(g, pt.Stats)
		pt.Gates = append(pt.Gates, checks...)
		pt.Passed = pt.Passed && !slices.ContainsFunc(checks, func(c GateResult) bool { return !c.Passed })
	}
}

// badArtifact is a ValidateArtifact failure.
func badArtifact(format string, args ...any) error {
	return fmt.Errorf("campaign artifact: "+format, args...)
}

// ValidateArtifact replays the artifact's own arithmetic: structural
// counts, run indexing and seed derivation, per-point statistics
// recomputed from the raw rows, statistic ordering, and gate verdicts.
// It is the tlmcheck -campaign contract — any mutation of the numbers
// that is not a consistent recomputation fails here.
func ValidateArtifact(a *Artifact) error {
	grid := 1
	for _, ax := range a.Axes {
		if len(ax.Values) == 0 {
			return badArtifact("axis %q has no values", ax.Kind)
		}
		grid *= len(ax.Values)
	}
	if a.RunsPerPoint < 1 {
		return badArtifact("runs_per_point %d", a.RunsPerPoint)
	}
	if want := grid * a.RunsPerPoint; a.TotalRuns != want {
		return badArtifact("total_runs %d, grid %d × %d seeds = %d", a.TotalRuns, grid, a.RunsPerPoint, want)
	}
	if len(a.Points) != grid {
		return badArtifact("%d points for a %d-point grid", len(a.Points), grid)
	}
	if a.CompletedRuns+a.FailedRuns != len(a.Runs) {
		return badArtifact("%d completed + %d failed != %d rows", a.CompletedRuns, a.FailedRuns, len(a.Runs))
	}
	if len(a.Runs) > a.TotalRuns {
		return badArtifact("%d rows exceed total_runs %d", len(a.Runs), a.TotalRuns)
	}
	if !a.Cancelled && len(a.Runs) != a.TotalRuns {
		return badArtifact("%d of %d runs present but not marked cancelled", len(a.Runs), a.TotalRuns)
	}
	if len(a.Reducers) == 0 {
		return badArtifact("no reducers")
	}

	// Rows: strictly increasing campaign indices, seeds re-derived from
	// the master seed, metrics complete on completed rows.
	perPoint := make(map[int][]RunRow)
	last := -1
	for _, row := range a.Runs {
		if row.Index <= last {
			return badArtifact("run index %d out of order after %d", row.Index, last)
		}
		last = row.Index
		if row.Index >= a.TotalRuns {
			return badArtifact("run index %d beyond total_runs %d", row.Index, a.TotalRuns)
		}
		if row.Point != row.Index/a.RunsPerPoint {
			return badArtifact("run %d mapped to point %d, want %d", row.Index, row.Point, row.Index/a.RunsPerPoint)
		}
		if want := RunSeed(a.Seed, row.Index); row.Seed != want {
			return badArtifact("run %d seed %d, derived seed %d", row.Index, row.Seed, want)
		}
		if row.Error != "" {
			if len(row.Metrics) != 0 {
				return badArtifact("failed run %d carries metrics", row.Index)
			}
			continue
		}
		for _, name := range a.Reducers {
			if _, ok := row.Metrics[name]; !ok {
				return badArtifact("run %d missing metric %q", row.Index, name)
			}
		}
		if len(row.Metrics) != len(a.Reducers) {
			return badArtifact("run %d has %d metrics for %d reducers", row.Index, len(row.Metrics), len(a.Reducers))
		}
		perPoint[row.Point] = append(perPoint[row.Point], row)
	}

	// Points: statistics recompute exactly from the rows, orderings
	// hold, gate verdicts are consistent.
	allPassed := true
	for i, pt := range a.Points {
		if pt.Index != i {
			return badArtifact("point %d indexed %d", i, pt.Index)
		}
		rows := perPoint[i]
		if pt.Runs != len(rows) {
			return badArtifact("point %s claims %d runs, rows hold %d", pt.Label, pt.Runs, len(rows))
		}
		if len(rows) == 0 {
			if len(pt.Stats) != 0 || len(pt.Gates) != 0 {
				return badArtifact("empty point %s carries stats or gates", pt.Label)
			}
			continue
		}
		if len(pt.Stats) != len(a.Reducers) {
			return badArtifact("point %s has %d stats for %d reducers", pt.Label, len(pt.Stats), len(a.Reducers))
		}
		for _, name := range a.Reducers {
			sum, ok := pt.Stats[name]
			if !ok {
				return badArtifact("point %s missing stat %q", pt.Label, name)
			}
			samples := make([]float64, len(rows))
			for j, row := range rows {
				samples[j] = row.Metrics[name]
			}
			if want := stats.Summarize(samples); sum != want {
				return badArtifact("point %s stat %q %+v, recomputed %+v", pt.Label, name, sum, want)
			}
			if !(sum.Min <= sum.P50 && sum.P50 <= sum.P90 && sum.P90 <= sum.P99 && sum.P99 <= sum.Max) {
				return badArtifact("point %s stat %q percentiles out of order", pt.Label, name)
			}
			if !(sum.Min <= sum.Mean && sum.Mean <= sum.Max) {
				return badArtifact("point %s stat %q mean outside range", pt.Label, name)
			}
			if sum.Count != len(rows) {
				return badArtifact("point %s stat %q count %d for %d rows", pt.Label, name, sum.Count, len(rows))
			}
		}
		failed := false
		for _, gr := range pt.Gates {
			var pass bool
			switch gr.Op {
			case "<=":
				pass = gr.Value <= gr.Bound
			case ">=":
				pass = gr.Value >= gr.Bound
			default:
				return badArtifact("point %s gate op %q", pt.Label, gr.Op)
			}
			if pass != gr.Passed {
				return badArtifact("point %s gate on %q verdict %v, recomputed %v",
					pt.Label, gr.Stat, gr.Passed, pass)
			}
			failed = failed || !gr.Passed
		}
		if pt.Passed == failed {
			return badArtifact("point %s passed=%v with failing-gate=%v", pt.Label, pt.Passed, failed)
		}
		allPassed = allPassed && pt.Passed
	}
	allPassed = allPassed && a.FailedRuns == 0
	if a.GatesPassed != allPassed {
		return badArtifact("gates_passed %v, recomputed %v", a.GatesPassed, allPassed)
	}
	return nil
}
