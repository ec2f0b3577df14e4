package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// steadySession is one set-up steady workload: the session trafficsim
// would build from the spec, its telemetry feed attached, warmed up.
type steadySession struct {
	spec scenario.Spec
	sess *scenario.Session
	tel  *scenario.TelemetryObserver
	feed *os.File

	warm                        int // warm-up frames stepped during set-up
	setupS, specLoadUs, buildMs float64
	digestWarm                  string
}

// setupSteady is the timed set-up: spec load + validate, NewSession,
// telemetry attach (feed to a temp file at FlushEvery 10, as trafficsim
// -telemetry does) and the warm-up frames. The harness never sets
// traffic.pipeline and never passes WithPipeline: it measures what a
// user gets by default.
func setupSteady(w workload, a childArgs, opts ...scenario.Option) (*steadySession, error) {
	start := time.Now()
	spec, err := loadScenario(w.Name, a.Seed)
	if err != nil {
		return nil, err
	}
	loadUs := float64(time.Since(start).Nanoseconds()) / 1e3
	s, err := startSession(spec, a, opts...)
	if err != nil {
		return nil, err
	}
	s.specLoadUs = loadUs
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// startSession is set-up from a loaded spec on.
func startSession(spec scenario.Spec, a childArgs, opts ...scenario.Option) (*steadySession, error) {
	start := time.Now()
	sess, err := scenario.NewSession(spec, opts...)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	feed, err := os.CreateTemp(a.OutDir, "feed-"+spec.Name+"-*.jsonl")
	if err != nil {
		return nil, err
	}
	tel := scenario.NewTelemetryObserver(feed, scenario.TelemetryConfig{FlushEvery: 10, Source: "bench"})
	tel.Attach(sess)
	warm := a.lengths().warmup
	for i := 0; i < warm; i++ {
		if _, err := sess.Step(); err != nil {
			return nil, fmt.Errorf("warm-up frame %d: %w", i, err)
		}
	}
	s := &steadySession{spec: spec, sess: sess, tel: tel, feed: feed, warm: warm}
	s.digestWarm = simDigest(sess.Report())
	s.buildMs = float64(built.Sub(start).Nanoseconds()) / 1e6
	return s, nil
}

// close ends the feed (its last flush included) and the session; the
// feed file stays for the caller to read and remove.
func (s *steadySession) close() error {
	err := s.tel.Close()
	if cerr := s.feed.Close(); err == nil {
		err = cerr
	}
	if cerr := s.sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// steadyChild is the setup and timed phases of a steady workload.
func steadyChild(w workload, a childArgs) (*childResult, error) {
	s, err := setupSteady(w, a)
	if err != nil {
		return nil, err
	}
	defer os.Remove(s.feed.Name())
	res := newChildResult(a.Kind)
	res.DigestWarm = s.digestWarm
	res.Values["setup_s"] = s.setupS
	res.Values["scenario.spec_load_us"] = s.specLoadUs
	res.Values["scenario.session_build_ms"] = s.buildMs
	if a.Kind == "setup" {
		return res, s.close()
	}

	// Timed region: one session stepping frames back to back (closed
	// loop, 1 client), in whole blocks. It ends once both the fixed
	// length and -seconds are reached.
	ln := a.lengths()
	block, early, countAt := ln.block, ln.trace, ln.count
	steps := make([]float64, 0, 1<<16) // ns per Step; sized so the timed region never grows it
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms
	t0 := time.Now()
	cpuB, allocB, tB := cpuSeconds(), ms.TotalAlloc, t0
	done := 0
	var counts *traffic.Report
	for {
		for i := 0; i < block; i++ {
			ts := time.Now()
			if _, err := s.sess.Step(); err != nil {
				return nil, fmt.Errorf("timed frame %d: %w", done, err)
			}
			steps = append(steps, float64(time.Since(ts)))
			done++
			if done == early {
				res.DigestEarly = simDigest(s.sess.Report())
			}
			if done == countAt {
				counts = s.sess.Report()
				res.Digest = simDigest(counts)
				res.Values["rss_peak_mb"] = peakRSSMiB()
			}
		}
		now, cpu := time.Now(), cpuSeconds()
		runtime.ReadMemStats(&ms)
		n := float64(block)
		res.Samples["frames_per_s"] = append(res.Samples["frames_per_s"], n/now.Sub(tB).Seconds())
		res.Samples["cpu_ms_per_frame"] = append(res.Samples["cpu_ms_per_frame"], (cpu-cpuB)*1e3/n)
		res.Samples["alloc_kb_per_frame"] = append(res.Samples["alloc_kb_per_frame"], float64(ms.TotalAlloc-allocB)/1024/n)
		cpuB, allocB, tB = cpu, ms.TotalAlloc, now
		if done >= countAt && now.Sub(t0).Seconds() >= a.Seconds {
			break
		}
	}
	n := float64(done)
	res.Frames = done
	res.Values["alloc_kb_per_frame"] = float64(ms.TotalAlloc-m0.TotalAlloc) / 1024 / n
	res.Values["runtime.gc_count"] = float64(ms.NumGC - m0.NumGC)
	res.Values["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-m0.PauseTotalNs) / 1e6
	res.Values["runtime.mallocs_per_frame"] = float64(ms.Mallocs-m0.Mallocs) / n
	res.Values["scenario.step_ms_p50"] = percentile(steps, 50) / 1e6
	res.Values["scenario.step_ms_p95"] = percentile(steps, 95) / 1e6
	res.Values["scenario.step_ms_p99"] = percentile(steps, 99) / 1e6
	res.Values["scenario.step_samples"] = n

	final := s.sess.Report()
	if err := s.close(); err != nil {
		return nil, err
	}
	if err := readFeed(s.feed.Name(), res, s.warm); err != nil {
		return nil, err
	}
	checkLedger(final, res)
	reportCounts(counts, res)
	res.Values["pipeline.foreach_us"] = foreachMicros()
	res.Values["runtime.rss_end_mb"] = peakRSSMiB()
	return res, nil
}

// checkLedger is the steady workloads' correctness check, read from the
// public report: the admission ledger balances, every granted
// per-terminal cell became an uplink burst, and every burst is one
// operation that failed if it was lost on the uplink, lost on ground
// verify, or delivered with a bit error on either link (each wrong bit
// counts as one failed operation: an upper bound that is exact at 0).
func checkLedger(rep *traffic.Report, res *childResult) {
	if rep.OfferedCells != rep.GrantedCells+rep.DeniedCells+rep.ThrottledCells {
		res.failf("ledger: offered %d != granted %d + denied %d + throttled %d",
			rep.OfferedCells, rep.GrantedCells, rep.DeniedCells, rep.ThrottledCells)
	}
	granted := 0
	for _, t := range rep.PerTerminal {
		granted += t.GrantedCells
	}
	if granted != rep.UplinkBursts {
		res.failf("ledger: %d granted per-terminal cells, %d uplink bursts", granted, rep.UplinkBursts)
	}
	for _, p := range rep.PerPopulation {
		granted += p.GrantedCells
	}
	if granted != rep.GrantedCells {
		res.failf("ledger: terminals and populations hold %d granted cells, report says %d", granted, rep.GrantedCells)
	}
	if !rep.Verified {
		res.failf("ground verify was off")
	}
	res.Attempted = int64(rep.UplinkBursts)
	res.Failed = min(res.Attempted,
		int64(rep.UplinkFailures+rep.DownlinkLost+rep.UplinkBitErrs+rep.DownlinkBitErrs))
	if res.Attempted == 0 {
		res.failf("no uplink burst was attempted")
	}
}

// reportCounts publishes the exact per-layer counts, read at timed frame
// lengths.count so they do not depend on how long the run went on.
func reportCounts(rep *traffic.Report, res *childResult) {
	v := res.Values
	v["modem.uplink_lost"] = float64(rep.UplinkFailures)
	v["fec.uplink_bit_errors"] = float64(rep.UplinkBitErrs)
	v["switchfab.delivered_packets"] = float64(rep.DeliveredPackets)
	v["switchfab.dropped_queue"] = float64(rep.DroppedQueue)
	v["traffic.offered_cells"] = float64(rep.OfferedCells)
	v["traffic.granted_cells"] = float64(rep.GrantedCells)
	v["traffic.denied_cells"] = float64(rep.DeniedCells)
	v["traffic.uplink_bursts"] = float64(rep.UplinkBursts)
	v["traffic.verify_lost"] = float64(rep.DownlinkLost)
	v["traffic.verify_bit_errors"] = float64(rep.DownlinkBitErrs)
	v["traffic.latency_mean_frames"] = rep.LatencyMean
}

// feedTimers maps the engine's feed timers to per-layer metric names.
var feedTimers = map[string]string{
	"engine.stage.synthesis_ns":  "engine.stage.synthesis_ms",
	"engine.stage.receive_ns":    "engine.stage.receive_ms",
	"engine.stage.schedule_ns":   "engine.stage.schedule_ms",
	"engine.stage.transmit_ns":   "engine.stage.transmit_ms",
	"engine.stage.verify_ns":     "engine.stage.verify_ms",
	"engine.pipeline.stall_ns":   "engine.pipeline.stall_ms",
	"engine.pipeline.overlap_ns": "engine.pipeline.overlap_ms",
}

// readFeed reads the run's own telemetry file back: the engine's stage
// and pipeline timers (median over the timed flush lines of each line's
// p50; a timer the run never had, such as the pipeline pair on a
// sequential session, reads 0) and the feed's size per frame.
func readFeed(path string, res *childResult, warm int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	p50s := map[string][]float64{}
	frames := int64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line telemetry.Line
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("telemetry feed line %d: %w", line.Seq, err)
		}
		frames = line.Counters["frames"]
		if int(line.Frame) < warm {
			continue // warm-up interval
		}
		for name, st := range line.Timers {
			if _, ok := feedTimers[name]; ok && st.Count > 0 {
				p50s[name] = append(p50s[name], st.P50)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if frames == 0 {
		res.failf("telemetry feed carried no frames counter")
		return nil
	}
	for name, metricName := range feedTimers {
		res.Values[metricName] = median(p50s[name]) / 1e6
	}
	res.Values["telemetry.feed_bytes_per_frame"] = float64(info.Size()) / float64(frames)
	return nil
}

// foreachMicros is the cost of one pipeline.ForEach fan-out of 12 no-op
// tasks (a full 3x4 grid) at the current GOMAXPROCS.
func foreachMicros() float64 {
	const calls = 2000
	samples := make([]float64, calls)
	for i := range samples {
		t := time.Now()
		pipeline.ForEach(12, func(int) {})
		samples[i] = float64(time.Since(t))
	}
	return median(samples) / 1e3
}
