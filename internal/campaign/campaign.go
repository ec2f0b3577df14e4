// Package campaign turns one declarative JSON campaign spec into a
// Monte Carlo fleet of scenario runs: a base scenario (preset name or
// inline spec) crossed with a parameter grid of registered sweep axes
// and a per-point seed sweep, executed concurrently over a bounded
// worker pool, and folded by registered reducers into campaign-level
// distribution statistics with declarative pass/fail gates. The whole
// result is one machine-readable artifact whose statistical content is
// a pure function of the spec — byte-identical across reruns and
// worker counts.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Spec is the declarative campaign description. Exactly one of
// BasePreset and Base names the base scenario; Axes span the parameter
// grid (the cross product of all axis value lists); RunsPerPoint seeds
// land on every grid point. The campaign runs
// RunsPerPoint × ∏ len(axis.Values) sessions in total.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// BasePreset names a scenario preset; Base inlines a full scenario
	// spec instead. Exactly one must be set.
	BasePreset string         `json:"base_preset,omitempty"`
	Base       *scenario.Spec `json:"base,omitempty"`

	// Frames, when positive, overrides the base scenario's frame count
	// (the CI smoke path runs the golden campaign at reduced frames).
	Frames int `json:"frames,omitempty"`

	// Seed is the campaign master seed. Every run r of the expansion
	// derives its own engine seed as RunSeed(Seed, r) — independent
	// streams from one number, reproducible without storing per-run
	// seeds in the spec.
	Seed int64 `json:"seed"`

	// RunsPerPoint is the Monte Carlo width: how many independently
	// seeded sessions run at each grid point.
	RunsPerPoint int `json:"runs_per_point"`

	// Axes are the sweep dimensions, each a registered axis kind with
	// its grid values. The grid is their cross product, last axis
	// fastest. An empty list is a plain seed sweep on the base spec.
	Axes []AxisSpec `json:"axes,omitempty"`

	// Reducers names the campaign statistics to fold; empty selects the
	// default set. Reducers required by gates are always included.
	Reducers []string `json:"reducers,omitempty"`

	// Gates are the declarative pass/fail thresholds evaluated per grid
	// point over the reduced statistics.
	Gates []Gate `json:"gates,omitempty"`

	// Verify, when set, overrides the base scenario's payload
	// verification flag (benchmarks turn it off).
	Verify *bool `json:"verify,omitempty"`
}

// AxisSpec is one sweep dimension of the grid: a registered axis kind
// and the values it takes.
type AxisSpec struct {
	Kind   string `json:"kind"`
	Values []any  `json:"values"`
}

// Gate is one declarative pass/fail criterion. Thresholds are pointers
// so zero is expressible ("max_drops": 0 gates on zero drops); a gate
// must set at least one. Where restricts the gate to grid points whose
// coordinate on the named axis is in the listed values; an empty Where
// applies the gate everywhere.
type Gate struct {
	MaxBER     *float64         `json:"max_ber,omitempty"`
	MinGoodput *float64         `json:"min_goodput,omitempty"`
	MaxDrops   *float64         `json:"max_drops,omitempty"`
	MaxLatency *float64         `json:"max_latency,omitempty"`
	Where      map[string][]any `json:"where,omitempty"`
}

// DefaultReducers is the statistic set a spec with no explicit reducer
// list folds.
var DefaultReducers = []string{"ber", "goodput", "latency", "drops"}

// Load parses a campaign spec from JSON, rejecting unknown fields and
// trailing content — the same strictness contract as scenario.Load.
func Load(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("campaign: trailing content after spec")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// LoadFile reads and parses a campaign spec file.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return Load(data)
}

// Validate checks the campaign spec against the axis and reducer
// registries without expanding it.
func (sp *Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if (sp.BasePreset == "") == (sp.Base == nil) {
		return fmt.Errorf("campaign %s: exactly one of base_preset and base must be set", sp.Name)
	}
	if sp.BasePreset != "" {
		if _, err := scenario.Preset(sp.BasePreset); err != nil {
			return fmt.Errorf("campaign %s: %w", sp.Name, err)
		}
	}
	if sp.Frames < 0 {
		return fmt.Errorf("campaign %s: frames %d", sp.Name, sp.Frames)
	}
	if sp.RunsPerPoint < 1 {
		return fmt.Errorf("campaign %s: runs_per_point %d, must be at least 1", sp.Name, sp.RunsPerPoint)
	}
	seen := map[string]bool{}
	for i, ax := range sp.Axes {
		if _, err := axisFor(ax.Kind); err != nil {
			return fmt.Errorf("campaign %s: axis %d: %w", sp.Name, i, err)
		}
		if seen[ax.Kind] {
			return fmt.Errorf("campaign %s: axis kind %q listed twice", sp.Name, ax.Kind)
		}
		seen[ax.Kind] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("campaign %s: axis %q has no values", sp.Name, ax.Kind)
		}
	}
	for _, name := range sp.Reducers {
		if _, err := reducerFor(name); err != nil {
			return fmt.Errorf("campaign %s: %w", sp.Name, err)
		}
	}
	for i, g := range sp.Gates {
		if g.MaxBER == nil && g.MinGoodput == nil && g.MaxDrops == nil && g.MaxLatency == nil {
			return fmt.Errorf("campaign %s: gate %d sets no threshold", sp.Name, i)
		}
		for kind := range g.Where {
			if !seen[kind] {
				return fmt.Errorf("campaign %s: gate %d filters on axis %q, not a spec axis", sp.Name, i, kind)
			}
		}
	}
	return nil
}

// EffectiveReducers is the reducer set the campaign folds: the spec's
// list (or the default set when empty) plus every statistic some gate
// thresholds on, deduplicated in first-mention order.
func (sp *Spec) EffectiveReducers() []string {
	names := sp.Reducers
	if len(names) == 0 {
		names = DefaultReducers
	}
	out := make([]string, 0, len(names)+2)
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range names {
		add(n)
	}
	for _, g := range sp.Gates {
		if g.MaxBER != nil {
			add("ber")
		}
		if g.MinGoodput != nil {
			add("goodput")
		}
		if g.MaxDrops != nil {
			add("drops")
		}
		if g.MaxLatency != nil {
			add("latency")
		}
	}
	return out
}

// Coord is one grid coordinate: the axis kind and the value the point
// takes on it.
type Coord struct {
	Kind  string `json:"kind"`
	Value any    `json:"value"`
}

// Point is one expanded grid point: its coordinates, a human label
// ("ebn0=3"), and the per-point scenario spec with all axes applied
// (before per-run seeding).
type Point struct {
	Index  int
	Label  string
	Coords []Coord
	Spec   scenario.Spec
}

// Run is one expanded concrete run: the grid point it belongs to, its
// position in the campaign, its derived seed, and the fully resolved
// scenario spec it executes.
type Run struct {
	Index int // campaign-wide run index; the seed-derivation counter
	Point int // index into the expansion's Points
	Seed  int64
	Spec  scenario.Spec
}

// Expansion is the concrete form of a campaign spec: every grid point
// and every seeded run, validated and ready to execute.
type Expansion struct {
	Spec   *Spec
	Base   string // preset name, or "inline" for an embedded base spec
	Frames int    // effective frame count after the spec override
	Points []Point
	Runs   []Run
}

// RunSeed derives the engine seed of campaign run index i from the
// campaign master seed: two rounds of SplitMix64 so neighbouring run
// indices land on statistically independent streams even when the
// master seed is small.
func RunSeed(campaignSeed int64, i int) int64 {
	return int64(traffic.SplitMix64(traffic.SplitMix64(uint64(campaignSeed)) + uint64(i)))
}

// coordLabel renders one grid value for point labels, trimming the
// float64 form JSON forces on integral numbers.
func coordLabel(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Expand resolves the base scenario and unrolls the grid: one Point per
// coordinate tuple (cross product of the axes, last axis fastest) with
// every axis applied to a private clone and the result validated, then
// one Run per (point, seed slot) with the derived seed set. Expansion
// is pure — it never executes anything.
func (sp *Spec) Expand() (*Expansion, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	var base scenario.Spec
	ex := &Expansion{Spec: sp}
	if sp.BasePreset != "" {
		var err error
		if base, err = scenario.Preset(sp.BasePreset); err != nil {
			return nil, fmt.Errorf("campaign %s: %w", sp.Name, err)
		}
		ex.Base = sp.BasePreset
	} else {
		base = sp.Base.Clone()
		ex.Base = "inline"
		if err := base.Validate(); err != nil {
			return nil, fmt.Errorf("campaign %s: inline base: %w", sp.Name, err)
		}
	}
	if sp.Frames > 0 {
		base.Frames = sp.Frames
	}
	if sp.Verify != nil {
		base.Traffic.Verify = *sp.Verify
	}
	ex.Frames = base.Frames

	nPoints := 1
	for _, ax := range sp.Axes {
		nPoints *= len(ax.Values)
	}
	ex.Points = make([]Point, 0, nPoints)
	idx := make([]int, len(sp.Axes))
	for p := 0; p < nPoints; p++ {
		pt := Point{Index: p, Coords: make([]Coord, len(sp.Axes)), Spec: base.Clone()}
		labels := make([]string, len(sp.Axes))
		for a, ax := range sp.Axes {
			v := ax.Values[idx[a]]
			pt.Coords[a] = Coord{Kind: ax.Kind, Value: v}
			labels[a] = ax.Kind + "=" + coordLabel(v)
			axis, err := axisFor(ax.Kind)
			if err != nil {
				return nil, err
			}
			if err := axis(&pt.Spec, v); err != nil {
				return nil, fmt.Errorf("campaign %s: axis %q value %v: %w", sp.Name, ax.Kind, v, err)
			}
		}
		if pt.Label = strings.Join(labels, ","); pt.Label == "" {
			pt.Label = "base"
		}
		if err := pt.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("campaign %s: point %s: %w", sp.Name, pt.Label, err)
		}
		ex.Points = append(ex.Points, pt)
		// Odometer step, last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(sp.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}

	ex.Runs = make([]Run, 0, nPoints*sp.RunsPerPoint)
	for p := range ex.Points {
		for r := 0; r < sp.RunsPerPoint; r++ {
			i := len(ex.Runs)
			run := Run{Index: i, Point: p, Seed: RunSeed(sp.Seed, i), Spec: ex.Points[p].Spec.Clone()}
			run.Spec.Traffic.Seed = run.Seed
			ex.Runs = append(ex.Runs, run)
		}
	}
	return ex, nil
}
