package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// RunOutcome is the per-run progress record handed to Config.OnRun as
// runs finish: the expanded run, its report (nil when it failed or was
// cancelled), and what became of it. Duration is wall clock for the
// telemetry stream only — it never reaches the artifact, whose content
// stays deterministic.
type RunOutcome struct {
	Run       Run
	Report    *traffic.Report
	Err       error
	Cancelled bool
	Duration  time.Duration
}

// Config tunes one campaign execution. The zero value runs on a single
// worker with no progress callback.
type Config struct {
	// Workers bounds the concurrent sessions; values below 1 mean 1.
	// Each worker owns its session outright — sessions are never shared
	// across goroutines, only their immutable reports cross back.
	Workers int
	// OnRun, when set, observes every finished run. Calls are
	// serialized by the runner; the callback must not retain Report
	// past its return if it mutates anything.
	OnRun func(RunOutcome)
}

// Execute expands the campaign and runs it: every expanded run in its
// own session over a bounded worker pool, per-run reports folded by the
// effective reducers into per-point distribution statistics, gates
// evaluated, everything assembled into the artifact. A context
// cancellation stops cleanly — in-flight sessions stop at their next
// frame boundary and are recorded as cancelled, untouched runs never
// start, and the returned artifact is a valid partial holding completed
// work only. Execute returns an error only for spec or expansion
// problems; run-level failures become artifact rows.
func Execute(ctx context.Context, sp *Spec, cfg Config) (*Artifact, error) {
	ex, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	reducerNames := sp.EffectiveReducers()
	reds := make([]Reducer, len(reducerNames))
	for i, name := range reducerNames {
		if reds[i], err = reducerFor(name); err != nil {
			return nil, err
		}
	}

	workers := max(cfg.Workers, 1)
	outcomes := make([]RunOutcome, len(ex.Runs))
	var cbMu sync.Mutex
	pipeline.ForEachN(workers, len(ex.Runs), func(i int) {
		run := ex.Runs[i]
		out := RunOutcome{Run: run}
		if ctx.Err() != nil {
			out.Cancelled = true
		} else {
			start := time.Now()
			out.Report, out.Err = executeRun(ctx, run)
			out.Duration = time.Since(start)
			if out.Err == nil && out.Report == nil {
				out.Cancelled = true
			}
		}
		outcomes[i] = out
		if cfg.OnRun != nil {
			cbMu.Lock()
			cfg.OnRun(out)
			cbMu.Unlock()
		}
	})

	return assemble(ex, reducerNames, reds, outcomes), nil
}

// executeRun runs one expanded campaign run in a fresh session. A nil
// report with a nil error means the context cancelled the session at a
// frame boundary before it finished. The session is closed on every
// path, so the next one on this worker takes its frame buffers.
func executeRun(ctx context.Context, run Run) (*traffic.Report, error) {
	sess, err := scenario.NewSession(run.Spec)
	if err != nil {
		return nil, fmt.Errorf("run %d (%s): %w", run.Index, run.Spec.Name, err)
	}
	defer sess.Close() // Run has drained it: Close reports no new error
	rep, err := sess.Run(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// The context fired at a frame boundary; the partial report
			// is internally consistent but statistically truncated, and
			// a truncated run would poison the point distribution — so
			// the run is dropped, not folded.
			return nil, nil
		}
		return nil, fmt.Errorf("run %d (%s): %w", run.Index, run.Spec.Name, err)
	}
	return rep, nil
}

// assemble folds the outcomes into the artifact: per-run rows for every
// finished (completed or failed) run, per-point reducer summaries over
// the completed rows, gate verdicts, campaign-level counts.
func assemble(ex *Expansion, reducerNames []string, reds []Reducer, outcomes []RunOutcome) *Artifact {
	sp := ex.Spec
	a := &Artifact{
		Name:         sp.Name,
		Description:  sp.Description,
		Seed:         sp.Seed,
		Base:         ex.Base,
		Frames:       ex.Frames,
		RunsPerPoint: sp.RunsPerPoint,
		Axes:         sp.Axes,
		Reducers:     reducerNames,
		TotalRuns:    len(ex.Runs),
		Runs:         make([]RunRow, 0, len(outcomes)),
	}

	perPoint := make([][]RunRow, len(ex.Points))
	for _, out := range outcomes {
		if out.Cancelled {
			a.Cancelled = true
			continue
		}
		row := RunRow{Index: out.Run.Index, Point: out.Run.Point, Seed: out.Run.Seed}
		if out.Err != nil {
			row.Error = out.Err.Error()
			a.FailedRuns++
		} else {
			row.Metrics = make(map[string]float64, len(reds))
			for i, r := range reds {
				row.Metrics[reducerNames[i]] = r(out.Report)
			}
			a.CompletedRuns++
			perPoint[out.Run.Point] = append(perPoint[out.Run.Point], row)
		}
		a.Runs = append(a.Runs, row)
	}

	a.GatesPassed = a.FailedRuns == 0
	a.Points = make([]PointStats, len(ex.Points))
	for p := range ex.Points {
		pt := PointStats{
			Index:  p,
			Label:  ex.Points[p].Label,
			Coords: ex.Points[p].Coords,
			Runs:   len(perPoint[p]),
		}
		if pt.Runs > 0 {
			pt.Stats = make(map[string]stats.Summary, len(reducerNames))
			for _, name := range reducerNames {
				samples := make([]float64, len(perPoint[p]))
				for j, row := range perPoint[p] {
					samples[j] = row.Metrics[name]
				}
				pt.Stats[name] = stats.Summarize(samples)
			}
			evaluateGates(sp.Gates, &pt)
			a.GatesPassed = a.GatesPassed && pt.Passed
		}
		a.Points[p] = pt
	}
	return a
}
