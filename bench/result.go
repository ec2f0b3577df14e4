package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// metric is one reported number: its value, its unit and — where it was
// sampled more than once — the sample count and the spread (block
// min–max, the campaign repetitions, or the set-up processes).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Lo    float64 `json:"lo,omitempty"`
	Hi    float64 `json:"hi,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string             `json:"name"`
	Frames    int                `json:"timed_frames"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	SimDigest string             `json:"sim_digest"`
	EndToEnd  map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Shares    map[string]float64 `json:"frame_shares,omitempty"`
}

// result is a result file: what -compare reads.
type result struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

// runConfig is one invocation's protocol.
type runConfig struct {
	Seed     int64
	Seconds  float64
	Procs    int
	Smoke    bool
	OutDir   string
	EndToEnd bool // extra set-up processes behind setup_s
	PerLayer bool // the traced child
	Spawn    func(childArgs) (*childResult, error)
}

// runWorkload runs one workload's phases one at a time — nothing else
// runs concurrently — and folds them: set-up in fresh processes, the
// timed run (no harness tracing), then the traced run in a fresh child.
func runWorkload(name string, rc runConfig) workloadResult {
	wr := workloadResult{Name: name}
	args := childArgs{Workload: name, Seed: rc.Seed, Seconds: rc.Seconds,
		Procs: rc.Procs, Smoke: rc.Smoke, OutDir: rc.OutDir}
	fail := func(format string, a ...any) { wr.Failures = append(wr.Failures, fmt.Sprintf(format, a...)) }
	phase := func(kind string) *childResult {
		a := args
		a.Kind = kind
		res, err := rc.Spawn(a)
		if err != nil {
			fail("%v", err)
			return nil
		}
		for _, f := range res.Failures {
			fail("%s: %s", kind, f)
		}
		return res
	}

	var setups, rss []float64
	var warm []string
	if rc.EndToEnd && !rc.Smoke {
		for i := 1; i < setupSamples; i++ {
			if res := phase("setup"); res != nil {
				setups = append(setups, res.Values["setup_s"])
				warm = append(warm, res.DigestWarm)
				if v, ok := res.Values["rss_peak_mb"]; ok {
					rss = append(rss, v)
				}
			}
		}
	}
	timed := phase("timed")
	if timed == nil {
		return wr
	}
	setups = append(setups, timed.Values["setup_s"])
	rss = append(rss, timed.Values["rss_peak_mb"])
	warm = append(warm, timed.DigestWarm)
	wr.Frames, wr.SimDigest = timed.Frames, timed.Digest
	wr.Attempted, wr.Failed = timed.Attempted, timed.Failed

	var traced *childResult
	if rc.PerLayer {
		if traced = phase("trace"); traced != nil {
			warm = append(warm, traced.DigestWarm)
			// The simulation is a pure function of the generated spec: the
			// 1-core sequential baseline must land where the timed run did.
			if traced.DigestEarly != timed.DigestEarly {
				fail("sim_digest: traced baseline %s, timed run %s", traced.DigestEarly, timed.DigestEarly)
			}
		}
	}
	if len(slices.Compact(slices.Clone(warm))) != 1 {
		fail("sim_digest after set-up differs between processes: %v", warm)
	}

	wr.Correct = len(wr.Failures) == 0
	if !wr.Correct {
		// A violated check voids the run: all of its operations count as failed.
		wr.Failed = max(wr.Attempted, 1)
		wr.Attempted = wr.Failed
	}
	if rc.EndToEnd {
		wr.EndToEnd = map[string]metric{
			"setup_s":            blockMedian(setups, "s"),
			"frames_per_s":       blockMedian(timed.Samples["frames_per_s"], "frames/s"),
			"cpu_ms_per_frame":   blockMedian(timed.Samples["cpu_ms_per_frame"], "ms/frame"),
			"alloc_kb_per_frame": withSpread(timed.Values["alloc_kb_per_frame"], timed.Samples["alloc_kb_per_frame"], "KiB/frame"),
			"rss_peak_mb":        blockMedian(rss, "MiB"),
			"ok_op_ratio":        {Value: 1 - float64(wr.Failed)/float64(max(wr.Attempted, 1)), Unit: "ratio", N: 1},
		}
	}
	if traced != nil {
		wr.PerLayer = map[string]float64{}
		wr.Shares = traced.Shares
		for _, src := range []map[string]float64{timed.Values, traced.Values} {
			for k, v := range src {
				if strings.Contains(k, ".") { // layer.metric; end-to-end names have no dot
					wr.PerLayer[k] = v
				}
			}
		}
		rate := median(timed.Samples["frames_per_s"])
		if step := traced.Values["traffic.step_ms_1core"]; step > 0 {
			wr.PerLayer["pipeline.speedup_x"] = rate * step / 1e3
		}
		if base := traced.Values["campaign.frames_per_s_1core"]; base > 0 {
			wr.PerLayer["campaign.speedup_x"] = rate / base
		}
	}
	return wr
}

// printWorkload renders one workload's tables.
func printWorkload(w io.Writer, def *definition, wr workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d timed frames, %d operations attempted, %d failed, sim_digest %s\n",
		wr.Name, wr.Frames, wr.Attempted, wr.Failed, wr.SimDigest)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", f)
	}
	if len(wr.EndToEnd) > 0 {
		fmt.Fprintf(w, "   %-22s %14s  %-10s %-7s %-6s %s\n", "end to end", "value", "unit", "better", "bound", "samples (min .. max)")
		for _, d := range def.EndToEnd {
			m, ok := wr.EndToEnd[d.Name]
			if !ok {
				continue
			}
			spread := ""
			if m.N > 1 {
				spread = fmt.Sprintf("%d (%.6g .. %.6g)", m.N, m.Lo, m.Hi)
			}
			fmt.Fprintf(w, "   %-22s %14.6g  %-10s %-7s %-6g %s\n", d.Name, m.Value, m.Unit, d.Better, d.Bound, spread)
		}
	}
	if len(wr.PerLayer) > 0 {
		fmt.Fprintf(w, "   %-34s %14s  %s\n", "per layer", "value", "unit")
		for _, d := range def.PerLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "   %-34s %14.6g  %s\n", d.Name, v, d.Unit)
			}
		}
		// A faster layer saves at most its share of the frame: the share is
		// the ceiling a later change may claim for it on this workload.
		fmt.Fprintf(w, "   %-34s %14s\n", "hand-driven top-level span", "% of 1-core step")
		names := make([]string, 0, len(wr.Shares))
		for k := range wr.Shares {
			names = append(names, k)
		}
		slices.SortFunc(names, func(a, b string) int { return cmp.Compare(wr.Shares[b], wr.Shares[a]) })
		for _, k := range names {
			fmt.Fprintf(w, "   %-34s %13.1f%%\n", k, 100*wr.Shares[k])
		}
	}
}

// printDriverLine prints the driver form: one JSON object with exactly
// the keys correct, attempted, failed and metrics, naming every metric
// BENCHMARK.json declares for the requested kind.
func printDriverLine(w io.Writer, def *definition, wr workloadResult, perLayer bool) error {
	metrics := map[string]metric{}
	if perLayer {
		for _, d := range def.PerLayer {
			v, ok := wr.PerLayer[d.Name]
			if !ok {
				return fmt.Errorf("%s produced no per-layer metric %q", wr.Name, d.Name)
			}
			metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
	} else {
		for _, d := range def.EndToEnd {
			m, ok := wr.EndToEnd[d.Name]
			if !ok {
				return fmt.Errorf("%s produced no end-to-end metric %q", wr.Name, d.Name)
			}
			metrics[d.Name] = metric{Value: m.Value, Unit: d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Correct, max(wr.Attempted, 1), wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeResult writes a result file, refusing to write over anything git
// tracks: results belong in bench/out/, which is ignored.
func writeResult(path, root string, res result) error {
	out, err := filepath.Abs(filepath.Join(root, "bench", "out"))
	if err != nil {
		return err
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return err
	}
	if _, statErr := os.Stat(abs); statErr == nil && !strings.HasPrefix(abs, out+string(filepath.Separator)) {
		return fmt.Errorf("%s exists and is outside bench/out/: refusing to overwrite it", path)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(abs, append(data, '\n'), 0o644)
}
