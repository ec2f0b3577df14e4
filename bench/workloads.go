package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// specFS holds the workload specs. They use only the core spec fields
// (no pipeline switch, no events), so later schema clean-ups do not
// strand them.
//
//go:embed workloads/*.json
var specFS embed.FS

// lengths are the fixed run lengths of one child. A steady workload's
// timed region is whole blocks of block frames; counts, rss_peak_mb and
// the sim digest are read at timed frame count, so they repeat exactly
// whatever the run length, and a second digest at frame trace is what the
// traced child's 1-core baseline must reproduce.
type lengths struct {
	warmup   int // warm-up frames: part of set-up, not timed
	block    int // frames per rate sample
	count    int // minimum timed frames
	trace    int // 1-core baseline frames, and hand-driven frames with spans on
	reps     int // minimum campaign-sweep repetitions
	flush    int // bracketed frames behind telemetry.flush_us
	handWarm int // hand-driven warm-up frames, captured for the replay
	chunk    int // hand-driven frames between switching spans on and off
}

var (
	fullLengths  = lengths{warmup: 20, block: 50, count: 600, trace: 150, reps: 5, flush: 50, handWarm: 8, chunk: 10}
	smokeLengths = lengths{warmup: 2, block: 2, count: 8, trace: 3, reps: 1, flush: 10, handWarm: 2, chunk: 1}
)

const setupSamples = 5 // set-ups in fresh processes behind setup_s

type workload struct {
	Name     string
	Campaign bool
	// Guarded workloads fail unless trace.coverage lies in 0.85-1.15:
	// the ones whose frame is dominated by work the hand-driven frame
	// reproduces call for call.
	Guarded bool
}

var workloads = []workload{
	{Name: "conv-clean", Guarded: true},
	{Name: "turbo-impaired", Guarded: true},
	{Name: "megapop-sparse"},
	{Name: "campaign-sweep", Campaign: true},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %v)", name, workloadNames())
}

// seededSpec returns the workload's spec JSON with seed added to the
// field at path — the program under test only ever sees the generated
// spec.
func seededSpec(name string, seed int64, path ...string) ([]byte, error) {
	raw, err := specFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("workloads/%s.json: %w", name, err)
	}
	node := doc
	for _, key := range path[:len(path)-1] {
		next, ok := node[key].(map[string]any)
		if !ok {
			return nil, fmt.Errorf("workloads/%s.json: no object at %q", name, key)
		}
		node = next
	}
	last := path[len(path)-1]
	base, ok := node[last].(float64)
	if !ok {
		return nil, fmt.Errorf("workloads/%s.json: no number at %q", name, last)
	}
	node[last] = base + float64(seed)
	return json.Marshal(doc)
}

// loadScenario loads a steady workload's spec through scenario.Load.
func loadScenario(name string, seed int64) (scenario.Spec, error) {
	data, err := seededSpec(name, seed, "traffic", "seed")
	if err != nil {
		return scenario.Spec{}, err
	}
	return scenario.Load(bytes.NewReader(data))
}

// loadCampaign loads the campaign workload's spec through campaign.Load.
func loadCampaign(name string, seed int64) (*campaign.Spec, error) {
	data, err := seededSpec(name, seed, "seed")
	if err != nil {
		return nil, err
	}
	return campaign.Load(data)
}

// definition is BENCHMARK.json: the benchmark's contract with later
// changes — names, units, directions and regression bounds.
type definition struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []endToEndDef `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// loadDefinition finds BENCHMARK.json in the working directory or its
// parent (go test runs in bench/) and returns it with the repo root.
func loadDefinition() (*definition, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var def definition
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&def); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &def, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found: run from the repo root")
}
