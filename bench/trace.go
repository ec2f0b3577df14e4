package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// span is one timed call into a layer: name, start and end (ns since
// the trace began), the span that caused it (index into the trace, -1
// at top level) and the frame they all belong to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Frame  int32  `json:"frame"`
}

// tracer keeps spans in memory; they are written out when the child
// ends. Off, begin and end cost one branch each.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	cur   int32
	frame int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Frame: t.frame, Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.cur = s.Parent
}

// perFrame sums the spans of one name per traced frame (ms).
func (t *tracer) perFrame(name string) []float64 {
	sums := map[int32]float64{}
	for _, s := range t.spans {
		d := 0.0
		if s.Name == name {
			d = float64(s.End-s.Start) / 1e6
		}
		sums[s.Frame] += d // every traced frame counts, also one without this span
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// perCall lists the durations of the spans of one name (µs).
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// topLevel returns the top-level span names in first-seen order and the
// per-frame sum of all top-level spans (ms).
func (t *tracer) topLevel() (names []string, frameTotals []float64) {
	seen := map[string]bool{}
	sums := map[int32]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			continue
		}
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
		sums[s.Frame] += float64(s.End-s.Start) / 1e6
	}
	for _, v := range sums {
		frameTotals = append(frameTotals, v)
	}
	return names, frameTotals
}

func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed, "hand-driven frames at GOMAXPROCS=1; times in ns since the trace began; parent is an index into spans, -1 at top level", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceChild is the traced run, a separate child at GOMAXPROCS = 1:
//
//  1. 1-core baseline: lengths.trace untraced Session.Step frames, whose
//     median is traffic.step_ms_1core and the base of pipeline.speedup_x.
//  2. Hand-driven frames: the harness drives frames of the workload's
//     shape through the public functions the engine itself calls, with a
//     span around each call, alternating spans on and off.
//  3. Replay: the bursts, soft bits and grids of hand-driven frames are
//     pushed one at a time through the calls whose insides cannot be
//     seen from outside, and through the kernels under them.
func traceChild(w workload, a childArgs) (*childResult, error) {
	res := newChildResult("trace")
	v := res.Values
	if !w.Campaign {
		// No campaign runs on a steady workload; campaign-sweep's timed
		// child reports these.
		for _, name := range []string{"campaign.run_ms_p50", "campaign.assemble_ms", "campaign.artifact_bytes", "campaign.speedup_x"} {
			v[name] = 0
		}
	}

	// The telemetry observer is bracketed by two harness observers so its
	// cost — the flush on every tenth frame — can be read from outside.
	// The brackets are dormant during the baseline.
	var bracket bool
	var tPre time.Time
	var flushNs []float64
	pre := func(scenario.FrameStats, func() *traffic.Report) {
		if bracket {
			tPre = time.Now()
		}
	}
	post := func(st scenario.FrameStats, _ func() *traffic.Report) {
		if bracket && (st.Frame+1)%10 == 0 {
			flushNs = append(flushNs, float64(time.Since(tPre)))
		}
	}

	var s *steadySession
	if w.Campaign {
		cs, err := setupCampaign(w, a)
		if err != nil {
			return nil, err
		}
		res.DigestWarm = cs.digestWarm
		// One Workers = 1 repetition: the single-threaded base of
		// campaign.speedup_x, and the artifact the timed run must match.
		rep, err := runCampaignRep(cs.spec, 1, a.OutDir)
		if err != nil {
			return nil, err
		}
		checkCampaign(rep, res)
		res.DigestEarly = fnvHex(rep.artifact)
		v["campaign.frames_per_s_1core"] = float64(len(cs.ex.Runs)*cs.ex.Frames) / rep.wall.Seconds()
		// The frame to attribute is the base spec at the grid's middle point.
		run := cs.ex.Runs[len(cs.ex.Runs)/2]
		if s, err = startSession(run.Spec, a, scenario.WithObserver(pre)); err != nil {
			return nil, err
		}
	} else {
		var err error
		if s, err = setupSteady(w, a, scenario.WithObserver(pre)); err != nil {
			return nil, err
		}
		res.DigestWarm = s.digestWarm
	}
	defer os.Remove(s.feed.Name())
	s.sess.AddObserver(post)
	v["scenario.session_build_ms"] = s.buildMs

	n := a.lengths()
	frames := n.trace
	steps := make([]float64, frames)
	for i := range steps {
		t := time.Now()
		if _, err := s.sess.Step(); err != nil {
			return nil, fmt.Errorf("baseline frame %d: %w", i, err)
		}
		steps[i] = float64(time.Since(t)) / 1e6
	}
	stepMs := median(steps)
	v["traffic.step_ms_1core"] = stepMs
	rep := s.sess.Report()
	if !w.Campaign {
		res.DigestEarly = simDigest(rep)
	}
	bracket = true
	for i := 0; i < n.flush; i++ {
		if _, err := s.sess.Step(); err != nil {
			return nil, fmt.Errorf("flush frame %d: %w", i, err)
		}
	}
	v["telemetry.flush_us"] = median(flushNs) / 1e3
	sync := s.sess.Payload().SyncConfig()
	if err := s.close(); err != nil {
		return nil, err
	}

	// Aggregate packets take downlink slots but synthesize no waveform;
	// the hand-driven frame carries them at the baseline's mean rate.
	aggRate := float64(rep.DeliveredPackets-rep.UplinkBursts) / float64(rep.Frames)
	h, err := newHand(s.spec, sync, max(aggRate, 0))
	if err != nil {
		return nil, err
	}
	captured := &capture{}
	h.capture = captured
	for i := 0; i < n.handWarm; i++ {
		if err := h.frame(); err != nil {
			return nil, err
		}
	}
	h.capture, h.bursts, h.failed = nil, 0, 0

	// Spans on and off alternate in chunks of 10 frames, so drift in the
	// host's speed lands on both sides of trace.overhead_pct.
	h.tr = newTracer(frames * 256)
	var onMs, offMs []float64
	for i := 0; i < 2*frames; i++ {
		h.tr.on = (i/n.chunk)%2 == 0
		h.tr.frame = int32(h.f)
		t := time.Now()
		if err := h.frame(); err != nil {
			return nil, err
		}
		ms := float64(time.Since(t)) / 1e6
		if h.tr.on {
			onMs = append(onMs, ms)
		} else {
			offMs = append(offMs, ms)
		}
	}
	h.tr.on = false
	// A stray loss is noise; one frame in a hundred means the harness's
	// frame is not the engine's.
	if h.failed*100 > h.bursts {
		res.failf("hand-driven frames: %d of %d bursts failed", h.failed, h.bursts)
	}
	v["trace.hand_bursts"], v["trace.hand_failed"] = float64(h.bursts), float64(h.failed)

	tr := h.tr
	names, totals := tr.topLevel()
	covered := median(totals)
	v["trace.coverage"] = covered / stepMs
	v["trace.overhead_pct"] = 100 * (median(onMs)/median(offMs) - 1)
	v["traffic.residual_ms"] = stepMs - covered
	res.Shares = map[string]float64{}
	for _, name := range names {
		res.Shares[name] = median(tr.perFrame(name)) / stepMs
	}
	// The guard that the harness's frame has not drifted from the engine's.
	if c := v["trace.coverage"]; !a.Smoke && w.Guarded && (c < 0.85 || c > 1.15) {
		res.failf("trace.coverage %.3f outside 0.85-1.15", c)
	}

	v["traffic.synth_ms"] = median(tr.perFrame("traffic.synth"))
	v["traffic.verify_ms"] = median(tr.perFrame("traffic.verify"))
	v["payload.receive_ms"] = median(tr.perFrame("payload.receive"))
	v["payload.transmit_ms"] = median(tr.perFrame("payload.transmit"))
	v["frontend.demux_ms"] = median(tr.perFrame("frontend.demux"))
	v["fec.encode_us_per_cw"] = median(tr.perCall("fec.encode"))
	v["modem.modulate_us_per_burst"] = median(tr.perCall("modem.modulate"))
	v["dsp.channel_us_per_burst"] = median(tr.perCall("dsp.channel"))
	var schedNs float64
	for _, us := range tr.perCall("switchfab.schedule") {
		schedNs += us * 1e3
	}
	if h.scheduled > 0 {
		v["switchfab.schedule_ns_per_pkt"] = schedNs / float64(h.scheduled)
	} else {
		v["switchfab.schedule_ns_per_pkt"] = 0
	}

	h.replay(captured, v)

	if err := tr.write(filepath.Join(a.OutDir, "trace-"+w.Name+".json"), w.Name, a.Seed); err != nil {
		return nil, err
	}
	return res, nil
}
