package campaign

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// validSpec is a small campaign over the clean preset used across the
// validation and expansion tests.
func validSpec() Spec {
	return Spec{
		Name:         "unit",
		BasePreset:   "clean",
		Seed:         42,
		RunsPerPoint: 2,
		Axes: []AxisSpec{
			{Kind: "ebn0", Values: []any{6.0, 9.0}},
			{Kind: "scheduler", Values: []any{"fifo", "drr"}},
		},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(sp *Spec) { sp.Name = "" }, "needs a name"},
		{"no base", func(sp *Spec) { sp.BasePreset = "" }, "exactly one of"},
		{"unknown preset", func(sp *Spec) { sp.BasePreset = "nope" }, "unknown preset"},
		{"negative frames", func(sp *Spec) { sp.Frames = -1 }, "frames"},
		{"zero runs", func(sp *Spec) { sp.RunsPerPoint = 0 }, "runs_per_point"},
		{"unknown axis", func(sp *Spec) { sp.Axes[0].Kind = "warp" }, "unknown axis"},
		{"duplicate axis", func(sp *Spec) { sp.Axes[1].Kind = "ebn0" }, "listed twice"},
		{"empty axis", func(sp *Spec) { sp.Axes[0].Values = nil }, "no values"},
		{"unknown reducer", func(sp *Spec) { sp.Reducers = []string{"vibes"} }, "unknown reducer"},
		{"empty gate", func(sp *Spec) { sp.Gates = []Gate{{}} }, "no threshold"},
		{"gate off-grid", func(sp *Spec) {
			sp.Gates = []Gate{{MaxBER: f64(1), Where: map[string][]any{"queue": {8.0}}}}
		}, "not a spec axis"},
	}
	for _, tc := range cases {
		sp := validSpec()
		tc.mut(&sp)
		err := sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	sp := validSpec()
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestLoadStrict(t *testing.T) {
	if _, err := Load([]byte(`{"name":"x","base_preset":"clean","runs_per_point":1,"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	for _, trailing := range []string{"{}", "}", "]", " ] "} {
		if _, err := Load([]byte(`{"name":"x","base_preset":"clean","runs_per_point":1}` + trailing)); err == nil {
			t.Fatalf("trailing %q accepted", trailing)
		}
	}
	sp, err := Load([]byte(`{"name":"x","base_preset":"clean","runs_per_point":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "x" {
		t.Fatalf("name %q", sp.Name)
	}
}

// TestGoldenSpecRoundTrip pins the checked-in golden spec to the
// built-in preset: the JSON form and the registry form are the same
// campaign.
func TestGoldenSpecRoundTrip(t *testing.T) {
	fromFile, err := LoadFile("testdata/ebn0-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	fromRegistry, err := Preset("ebn0-sweep")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*fromFile, fromRegistry) {
		t.Fatalf("golden spec drifted from the preset:\nfile:     %+v\nregistry: %+v", *fromFile, fromRegistry)
	}
	if got := gridRuns(fromFile); got < 32 {
		t.Fatalf("golden campaign expands to %d runs, want >= 32", got)
	}
}

func gridRuns(sp *Spec) int {
	n := sp.RunsPerPoint
	for _, ax := range sp.Axes {
		n *= len(ax.Values)
	}
	return n
}

func TestExpand(t *testing.T) {
	// Every grid point is re-validated as a scenario: the ebn0 axis
	// cannot smuggle in the negative Eb/N0 a plain spec would refuse.
	bad := validSpec()
	bad.Axes[0].Values = []any{6.0, -1.0}
	if _, err := bad.Expand(); err == nil || !strings.Contains(err.Error(), "ebn0_db -1") {
		t.Fatalf("negative ebn0 grid point: %v", err)
	}

	sp := validSpec()
	ex, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Points) != 4 {
		t.Fatalf("%d points, want 4", len(ex.Points))
	}
	wantLabels := []string{
		"ebn0=6,scheduler=fifo", "ebn0=6,scheduler=drr",
		"ebn0=9,scheduler=fifo", "ebn0=9,scheduler=drr",
	}
	for i, pt := range ex.Points {
		if pt.Label != wantLabels[i] {
			t.Errorf("point %d label %q, want %q", i, pt.Label, wantLabels[i])
		}
	}
	if ex.Points[0].Spec.Traffic.EbN0dB != 6 || ex.Points[2].Spec.Traffic.EbN0dB != 9 {
		t.Fatal("ebn0 axis not applied")
	}
	if ex.Points[1].Spec.Traffic.Scheduler == nil || ex.Points[1].Spec.Traffic.Scheduler.Kind != "drr" {
		t.Fatal("scheduler axis not applied")
	}
	if len(ex.Runs) != 8 {
		t.Fatalf("%d runs, want 8", len(ex.Runs))
	}
	seen := map[int64]bool{}
	for i, run := range ex.Runs {
		if run.Index != i || run.Point != i/2 {
			t.Fatalf("run %d: index %d point %d", i, run.Index, run.Point)
		}
		if want := RunSeed(sp.Seed, i); run.Seed != want || run.Spec.Traffic.Seed != want {
			t.Fatalf("run %d: seed %d / spec seed %d, want %d", i, run.Seed, run.Spec.Traffic.Seed, want)
		}
		if seen[run.Seed] {
			t.Fatalf("run %d: seed %d repeats", i, run.Seed)
		}
		seen[run.Seed] = true
	}
	// Expansion must not alias specs across runs: mutating one run's
	// spec cannot reach its siblings or the point spec.
	ex.Runs[0].Spec.Terminals[0].ID = "mutated"
	if ex.Runs[1].Spec.Terminals[0].ID == "mutated" || ex.Points[0].Spec.Terminals[0].ID == "mutated" {
		t.Fatal("run specs alias each other")
	}
}

func TestExpandFramesAndVerifyOverride(t *testing.T) {
	sp := validSpec()
	sp.Frames = 3
	off := false
	sp.Verify = &off
	ex, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Frames != 3 {
		t.Fatalf("frames %d, want 3", ex.Frames)
	}
	for _, run := range ex.Runs {
		if run.Spec.Frames != 3 || run.Spec.Traffic.Verify {
			t.Fatalf("run %d: frames %d verify %v", run.Index, run.Spec.Frames, run.Spec.Traffic.Verify)
		}
	}
}

func TestEffectiveReducers(t *testing.T) {
	sp := validSpec()
	if got := sp.EffectiveReducers(); !reflect.DeepEqual(got, DefaultReducers) {
		t.Fatalf("default reducers %v", got)
	}
	sp.Reducers = []string{"ber"}
	sp.Gates = []Gate{{MinGoodput: f64(1), MaxBER: f64(1)}}
	want := []string{"ber", "goodput"}
	if got := sp.EffectiveReducers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reducers %v, want %v", got, want)
	}
}

func TestRunSeedSpread(t *testing.T) {
	// Neighbouring run indices from a tiny master seed must land far
	// apart: no two of the first 1000 derived seeds collide, and the
	// low bits are not sequential.
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := RunSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at run %d", i)
		}
		seen[s] = true
	}
	if RunSeed(1, 1)-RunSeed(1, 0) == 1 {
		t.Fatal("derived seeds are sequential")
	}
}

// TestReducerStatsAgainstReference folds a synthetic metric set through
// the artifact assembly path and checks every summary against an
// independently sorted reference computation.
func TestReducerStatsAgainstReference(t *testing.T) {
	samples := []float64{5, 1, 4, 1, 3, 9, 2, 6}
	sum := stats.Summarize(append([]float64(nil), samples...))
	ref := append([]float64(nil), samples...)
	sort.Float64s(ref)
	nearest := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(ref))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(ref) {
			rank = len(ref)
		}
		return ref[rank-1]
	}
	mean := 0.0
	for _, v := range ref {
		mean += v
	}
	mean /= float64(len(ref))
	if sum.Min != ref[0] || sum.Max != ref[len(ref)-1] {
		t.Fatalf("min/max %v/%v", sum.Min, sum.Max)
	}
	if math.Abs(sum.Mean-mean) > 1e-12 {
		t.Fatalf("mean %v, want %v", sum.Mean, mean)
	}
	for _, c := range []struct {
		got float64
		q   float64
	}{{sum.P50, 0.50}, {sum.P90, 0.90}, {sum.P99, 0.99}} {
		if want := nearest(c.q); c.got != want {
			t.Fatalf("p%v = %v, want %v", c.q*100, c.got, want)
		}
	}
}

// The count axis lifts every entry of the base preset to a population
// of that many members over all beams with up to four tracers — the
// spec the hand-written axis gave — and refuses a count below one.
func TestCountAxisLifts(t *testing.T) {
	ax, err := axisFor("count")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ count, tracers int }{{5000, 4}, {2, 2}} {
		sp := scenario.Clean()
		if err := ax(&sp, float64(tc.count)); err != nil {
			t.Fatal(err)
		}
		for _, term := range sp.Terminals {
			if term.Count != tc.count || term.Tracers != tc.tracers || !reflect.DeepEqual(term.Beams, []int{0, 1, 2}) {
				t.Fatalf("count %d: entry %s lifted to count %d, %d tracers, beams %v", tc.count, term.ID, term.Count, term.Tracers, term.Beams)
			}
		}
	}
	sp := scenario.Clean()
	if err := ax(&sp, 0.0); err == nil {
		t.Fatal("count 0 accepted")
	}
}
