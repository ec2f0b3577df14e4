package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// campaignSession is the set-up campaign workload: the spec fleet would
// load, expanded, with one 1-run warm-up campaign behind it.
type campaignSession struct {
	spec *campaign.Spec
	ex   *campaign.Expansion

	setupS, specLoadUs float64
	digestWarm         string
}

// setupCampaign is the timed set-up of campaign-sweep: Load + Expand +
// one 1-run warm-up campaign (the base spec at the grid's last point).
func setupCampaign(w workload, a childArgs) (*campaignSession, error) {
	start := time.Now()
	spec, err := loadCampaign(w.Name, a.Seed)
	if err != nil {
		return nil, err
	}
	if a.Smoke {
		// 4 runs x 2 frames: names and plumbing, not the waterfall.
		spec.Frames, spec.RunsPerPoint, spec.Gates = 2, 1, nil
	}
	ex, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	loaded := time.Now()
	warm := *spec
	warm.RunsPerPoint = 1
	warm.Gates = nil
	warm.Axes = make([]campaign.AxisSpec, len(spec.Axes))
	for i, ax := range spec.Axes {
		warm.Axes[i] = campaign.AxisSpec{Kind: ax.Kind, Values: ax.Values[len(ax.Values)-1:]}
	}
	art, err := campaign.Execute(context.Background(), &warm, campaign.Config{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	data, err := art.Encode()
	if err != nil {
		return nil, err
	}
	return &campaignSession{spec: spec, ex: ex,
		setupS:     time.Since(start).Seconds(),
		specLoadUs: float64(loaded.Sub(start).Nanoseconds()) / 1e3,
		digestWarm: fnvHex(data)}, nil
}

// campaignRep is one campaign.Execute the way fleet runs it — campaign
// telemetry counters and a per-run timer flushed every 4 finished runs —
// with the harness keeping what fleet prints: the artifact, the per-run
// wall times and reports.
type campaignRep struct {
	artifact  []byte
	art       *campaign.Artifact
	wall      time.Duration
	assemble  time.Duration // Execute's tail after the last run finished
	runMs     []float64
	reports   []*traffic.Report
	feedBytes int64
}

func runCampaignRep(spec *campaign.Spec, workers int, outDir string) (*campaignRep, error) {
	feed, err := os.CreateTemp(outDir, "feed-campaign-*.jsonl")
	if err != nil {
		return nil, err
	}
	defer os.Remove(feed.Name())
	defer feed.Close()
	reg := telemetry.NewRegistry()
	completed, failed := reg.Counter("campaign.runs_completed"), reg.Counter("campaign.runs_failed")
	runNs := reg.Timer("campaign.run_ns")
	flusher := telemetry.NewFlusher(reg, feed, telemetry.WithSource("bench"))

	rep := &campaignRep{}
	finished := 0
	var lastRun time.Time
	var flushErr error
	cfg := campaign.Config{Workers: workers, OnRun: func(o campaign.RunOutcome) {
		finished++
		if o.Err != nil || o.Report == nil {
			failed.Inc()
		} else {
			completed.Inc()
			runNs.Observe(float64(o.Duration.Nanoseconds()))
			rep.runMs = append(rep.runMs, float64(o.Duration.Nanoseconds())/1e6)
			rep.reports = append(rep.reports, o.Report)
		}
		if finished%4 == 0 && flushErr == nil {
			flushErr = flusher.Flush(int64(finished))
		}
		lastRun = time.Now()
	}}
	start := time.Now()
	art, err := campaign.Execute(context.Background(), spec, cfg)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if flushErr == nil {
		flushErr = flusher.Flush(int64(finished))
	}
	if flushErr != nil {
		return nil, fmt.Errorf("campaign telemetry: %w", flushErr)
	}
	rep.art, rep.wall, rep.assemble = art, end.Sub(start), end.Sub(lastRun)
	if rep.artifact, err = art.Encode(); err != nil {
		return nil, err
	}
	if info, err := feed.Stat(); err == nil {
		rep.feedBytes = info.Size()
	}
	return rep, nil
}

// checkCampaign is campaign-sweep's correctness check on one repetition:
// a valid artifact, all runs complete, all gates passed. An operation is
// one run; it fails on a run error or if its grid point fails a gate.
func checkCampaign(rep *campaignRep, res *childResult) {
	a := rep.art
	if err := campaign.ValidateArtifact(a); err != nil {
		res.failf("artifact: %v", err)
	}
	if a.CompletedRuns != a.TotalRuns {
		res.failf("campaign completed %d of %d runs", a.CompletedRuns, a.TotalRuns)
	}
	res.Attempted += int64(a.TotalRuns)
	res.Failed += int64(a.TotalRuns - a.CompletedRuns)
	for _, pt := range a.Points {
		if pt.Runs > 0 && !pt.Passed {
			res.Failed += int64(pt.Runs)
			res.failf("gates failed at %s", pt.Label)
		}
	}
}

// campaignChild is the setup and timed phases of campaign-sweep: the
// campaign repeated back to back at Workers = GOMAXPROCS (one client
// per core), each repetition one rate sample.
func campaignChild(w workload, a childArgs) (*childResult, error) {
	s, err := setupCampaign(w, a)
	if err != nil {
		return nil, err
	}
	res := newChildResult(a.Kind)
	res.DigestWarm = s.digestWarm
	res.Values["setup_s"] = s.setupS
	res.Values["scenario.spec_load_us"] = s.specLoadUs
	if a.Kind == "setup" {
		// One process's peak depends on which GC cycle its two concurrent
		// session constructions fall into (56-83 MiB over 29 runs, in
		// steps of a session's footprint), so rss_peak_mb is the median
		// over the invocation's processes: the set-up ones run one
		// repetition for it.
		if _, err := runCampaignRep(s.spec, a.Procs, a.OutDir); err != nil {
			return nil, err
		}
		res.Values["rss_peak_mb"] = peakRSSMiB()
		return res, nil
	}

	reps := a.lengths().reps
	framesPerRep := len(s.ex.Runs) * s.ex.Frames
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms
	t0 := time.Now()
	cpuB, allocB := cpuSeconds(), ms.TotalAlloc
	var first *campaignRep
	var runMs []float64
	var feedBytes int64
	done := 0
	for {
		rep, err := runCampaignRep(s.spec, a.Procs, a.OutDir)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", done, err)
		}
		done++
		cpu := cpuSeconds()
		runtime.ReadMemStats(&ms)
		n := float64(framesPerRep)
		res.Samples["frames_per_s"] = append(res.Samples["frames_per_s"], n/rep.wall.Seconds())
		res.Samples["cpu_ms_per_frame"] = append(res.Samples["cpu_ms_per_frame"], (cpu-cpuB)*1e3/n)
		res.Samples["alloc_kb_per_frame"] = append(res.Samples["alloc_kb_per_frame"], float64(ms.TotalAlloc-allocB)/1024/n)
		res.Samples["campaign.assemble_ms"] = append(res.Samples["campaign.assemble_ms"], float64(rep.assemble.Nanoseconds())/1e6)
		cpuB, allocB = cpu, ms.TotalAlloc
		runMs = append(runMs, rep.runMs...)
		feedBytes += rep.feedBytes
		checkCampaign(rep, res)
		if first == nil {
			first = rep
			// The high-water mark keeps creeping up over back-to-back
			// repetitions (74 -> ~125 MiB after five), so the reported
			// peak is read at this fixed point.
			res.Values["rss_peak_mb"] = peakRSSMiB()
		} else if !bytes.Equal(first.artifact, rep.artifact) {
			res.failf("artifact of repetition %d differs from the first", done)
		}
		if done >= reps && time.Since(t0).Seconds() >= a.Seconds {
			break
		}
	}
	n := float64(done * framesPerRep)
	res.Frames = done * framesPerRep
	res.Digest = fnvHex(first.artifact)
	res.DigestEarly = res.Digest // what the traced child's 1-worker repetition must reproduce
	v := res.Values
	v["alloc_kb_per_frame"] = float64(ms.TotalAlloc-m0.TotalAlloc) / 1024 / n
	v["runtime.gc_count"] = float64(ms.NumGC - m0.NumGC)
	v["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-m0.PauseTotalNs) / 1e6
	v["runtime.mallocs_per_frame"] = float64(ms.Mallocs-m0.Mallocs) / n
	v["campaign.run_ms_p50"] = percentile(runMs, 50)
	v["campaign.assemble_ms"] = median(res.Samples["campaign.assemble_ms"])
	v["campaign.artifact_bytes"] = float64(len(first.artifact))
	v["telemetry.feed_bytes_per_frame"] = float64(feedBytes) / n
	// A campaign's sessions are built and stepped inside Execute: the
	// frame time seen from outside is a run's wall time over its frames,
	// construction included — which is what a short session costs.
	perFrame := make([]float64, len(runMs))
	for i, ms := range runMs {
		perFrame[i] = ms / float64(s.ex.Frames)
	}
	v["scenario.step_ms_p50"] = percentile(perFrame, 50)
	v["scenario.step_ms_p95"] = percentile(perFrame, 95)
	v["scenario.step_ms_p99"] = percentile(perFrame, 99)
	v["scenario.step_samples"] = float64(len(perFrame))
	// Campaign sessions carry no per-session feed (fleet attaches none),
	// so the engine's feed timers do not exist on this workload.
	for _, name := range feedTimers {
		v[name] = 0
	}
	sumReports(first.reports, res)
	v["pipeline.foreach_us"] = foreachMicros()
	v["runtime.rss_end_mb"] = peakRSSMiB()
	return res, nil
}

// sumReports publishes the exact per-layer counts of a campaign: the
// sums over one repetition's run reports (every repetition is the same
// runs, so one is all of them).
func sumReports(reports []*traffic.Report, res *childResult) {
	var sum traffic.Report
	for _, r := range reports {
		sum.OfferedCells += r.OfferedCells
		sum.GrantedCells += r.GrantedCells
		sum.DeniedCells += r.DeniedCells
		sum.UplinkBursts += r.UplinkBursts
		sum.UplinkFailures += r.UplinkFailures
		sum.UplinkBitErrs += r.UplinkBitErrs
		sum.DeliveredPackets += r.DeliveredPackets
		sum.DroppedQueue += r.DroppedQueue
		sum.DownlinkLost += r.DownlinkLost
		sum.DownlinkBitErrs += r.DownlinkBitErrs
		sum.LatencySum += r.LatencySum
	}
	if sum.DeliveredPackets > 0 {
		sum.LatencyMean = float64(sum.LatencySum) / float64(sum.DeliveredPackets)
	}
	reportCounts(&sum, res)
}
