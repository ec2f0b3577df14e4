package scenario

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the preset golden files")

// Every registered preset must validate, survive a JSON round trip
// bit-for-bit, and match its checked-in golden file — the serialized
// form is API surface (scenario files reference it), so drift fails CI.
// canonicalJSON renders a spec in the golden-file and scenario-file
// format: two-space indented JSON, one trailing newline.
func canonicalJSON(t *testing.T, sp Spec) []byte {
	t.Helper()
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestPresetGoldenRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			sp, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("preset does not validate: %v", err)
			}
			data := canonicalJSON(t, sp)
			golden := filepath.Join("testdata", name+".json")
			if *update {
				if err := os.WriteFile(golden, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -update): %v", err)
			}
			if string(data) != string(want) {
				t.Fatalf("serialized preset drifted from %s:\n%s", golden, data)
			}
			back, err := Load(strings.NewReader(string(data)))
			if err != nil {
				t.Fatalf("round trip failed to load: %v", err)
			}
			if !reflect.DeepEqual(sp, back) {
				t.Fatalf("round trip not identical:\nhave %+v\nwant %+v", back, sp)
			}
		})
	}
}

// Preset builders must return fresh values: mutating one caller's spec
// cannot leak into the next.
func TestPresetIsolation(t *testing.T) {
	a, _ := Preset("hotspot")
	a.Terminals[0].Beam = 2
	a.Events[0].Frame = 99
	b, _ := Preset("hotspot")
	if b.Terminals[0].Beam == 2 || b.Events[0].Frame == 99 {
		t.Fatal("preset spec shares state across calls")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"frames": 2, "bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestLoadRejectsTrailingContent(t *testing.T) {
	sp, _ := Preset("clean")
	data := canonicalJSON(t, sp)
	if _, err := Load(strings.NewReader(string(data) + "{}")); err == nil {
		t.Fatal("trailing document accepted")
	}
	if _, err := Load(strings.NewReader(string(data))); err != nil {
		t.Fatalf("clean document rejected: %v", err)
	}
}

// The Validate rejection suite: every way a spec can be inconsistent
// must fail with an error naming the problem.
func TestValidateRejections(t *testing.T) {
	valid := func() Spec {
		sp, err := Preset("clean")
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // error substring
	}{
		{"zero frames", func(sp *Spec) { sp.Frames = 0 }, "frames"},
		{"no carriers", func(sp *Spec) { sp.Traffic.Carriers = 0 }, "carrier"},
		{"no slots", func(sp *Spec) { sp.Traffic.Slots = 0 }, "slot"},
		{"guard eats slot", func(sp *Spec) { sp.Traffic.GuardSymbols = sp.Traffic.SlotSymbols }, "guard"},
		{"payload under frame", func(sp *Spec) { sp.System.Carriers = 2 }, "payload serves"},
		{"queue depth", func(sp *Spec) { sp.Traffic.QueueDepth = 0 }, "queue depth"},
		{"bad policy", func(sp *Spec) { sp.Traffic.Policy = "drop-everything" }, "policy"},
		{"negative ebn0", func(sp *Spec) { sp.Traffic.EbN0dB = -1 }, "ebn0_db -1"},
		{"nan ebn0", func(sp *Spec) { sp.Traffic.EbN0dB = math.NaN() }, "ebn0_db NaN"},
		{"carriers overlap on the default plan", func(sp *Spec) {
			sp.Traffic.Carriers = 10 // 0.08 cycles/sample apart, a burst occupies 0.0844
		}, "closer than"},
		{"64 carriers", func(sp *Spec) { sp.Traffic.Carriers = 64 }, "closer than"},
		{"missing codec", func(sp *Spec) { sp.System.Codec = "" }, "codec"},
		{"unknown codec", func(sp *Spec) { sp.System.Codec = "ldpc-r1/2" }, "unknown codec"},
		{"codeword over budget", func(sp *Spec) {
			sp.System.Codec = "turbo-r1/3"
			sp.System.PayloadSymbols = 24 // 48-bit budget < EncodedLen(16)
		}, "burst budget"},
		{"burst over slot", func(sp *Spec) {
			sp.System.PayloadSymbols = 400 // 448-symbol burst > 304-symbol budget
		}, "slot budget"},
		{"empty population", func(sp *Spec) { sp.Terminals = nil }, "empty terminal population"},
		{"terminal without id", func(sp *Spec) { sp.Terminals[0].ID = "" }, "without an ID"},
		{"duplicate terminal", func(sp *Spec) { sp.Terminals[1].ID = sp.Terminals[0].ID }, "duplicate"},
		{"beam out of range", func(sp *Spec) { sp.Terminals[0].Beam = sp.Traffic.Carriers }, "beam"},
		{"negative beam", func(sp *Spec) { sp.Terminals[0].Beam = -1 }, "beam"},
		{"unknown model", func(sp *Spec) { sp.Terminals[0].Model.Kind = "pareto" }, "unknown traffic model"},
		{"empty onoff period", func(sp *Spec) {
			sp.Terminals[0].Model = ModelSpec{Kind: "onoff", Cells: 1}
		}, "period"},
		{"cfo beyond range", func(sp *Spec) {
			sp.Terminals[0].Channel = &traffic.ChannelProfile{CFO: 0.2}
		}, "acquisition range"},
		{"drift walks out", func(sp *Spec) {
			sp.Terminals[0].Channel = &traffic.ChannelProfile{CFO: 0.1, Drift: 0.002}
		}, "acquisition range"},
		{"timing out of range", func(sp *Spec) {
			sp.Terminals[0].Channel = &traffic.ChannelProfile{Timing: 1.5}
		}, "timing"},
		{"negative timing", func(sp *Spec) {
			sp.Terminals[0].Channel = &traffic.ChannelProfile{Timing: -0.25}
		}, "timing"},
		{"gain out of range", func(sp *Spec) {
			sp.Terminals[0].Channel = &traffic.ChannelProfile{Gain: 3}
		}, "gain"},
		{"event negative frame", func(sp *Spec) {
			sp.Events = []Event{{Frame: -1, Action: ActionSwapDecoder, Codec: "uncoded"}}
		}, "negative frame"},
		{"event unknown action", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: "reboot"}}
		}, "unknown action"},
		{"swap without codec", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSwapDecoder}}
		}, "missing codec"},
		{"swap unknown codec", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSwapDecoder, Codec: "ldpc"}}
		}, "unknown codec"},
		{"migrate unknown waveform", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionMigrateWaveform, Waveform: "ofdm"}}
		}, "waveform"},
		{"set-channel unknown terminal", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSetChannel, Terminal: "ghost"}}
		}, "not in the population"},
		{"set-channel after leave", func(sp *Spec) {
			sp.Events = []Event{
				{Frame: 1, Action: ActionLeave, Terminal: "t0"},
				{Frame: 2, Action: ActionSetChannel, Terminal: "t0"},
			}
		}, "not in the population"},
		{"join duplicate", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionJoin, Join: &TerminalSpec{
				ID: "t0", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}}}}
		}, "already in the population"},
		{"join without terminal", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionJoin}}
		}, "missing join terminal"},
		{"join bad beam", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionJoin, Join: &TerminalSpec{
				ID: "late", Beam: 9, Model: ModelSpec{Kind: "cbr", Cells: 1}}}}
		}, "beam"},
		{"leave unknown", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionLeave, Terminal: "ghost"}}
		}, "not in the population"},
		{"set-queue empty", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSetQueue}}
		}, "neither queue depth nor policy"},
		{"set-queue bad policy", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSetQueue, Policy: "random-early"}}
		}, "policy"},
		{"unknown terminal class", func(sp *Spec) {
			sp.Terminals[0].Class = "gold"
		}, "unknown traffic class"},
		{"unknown scheduler", func(sp *Spec) {
			sp.Traffic.Scheduler = &SchedulerSpec{Kind: "wfq"}
		}, "unknown scheduler"},
		{"fifo with weights", func(sp *Spec) {
			sp.Traffic.Scheduler = &SchedulerSpec{Kind: "fifo", WeightEF: 2}
		}, "no floor or weights"},
		{"strict negative floor", func(sp *Spec) {
			sp.Traffic.Scheduler = &SchedulerSpec{Kind: "strict", BEFloor: -1}
		}, "BE floor"},
		{"drr zero weights", func(sp *Spec) {
			sp.Traffic.Scheduler = &SchedulerSpec{Kind: "drr"}
		}, "positive weight"},
		{"drr negative weight", func(sp *Spec) {
			sp.Traffic.Scheduler = &SchedulerSpec{Kind: "drr", WeightEF: -1, WeightBE: 1}
		}, "negative DRR weight"},
		{"set-scheduler missing", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSetScheduler}}
		}, "missing scheduler"},
		{"set-scheduler bad", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSetScheduler,
				Scheduler: &SchedulerSpec{Kind: "drr"}}}
		}, "positive weight"},
		{"set-class unknown terminal", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSetClass, Terminal: "ghost", Class: "ef"}}
		}, "not in the population"},
		{"set-class bad class", func(sp *Spec) {
			sp.Events = []Event{{Frame: 1, Action: ActionSetClass, Terminal: "t0", Class: "platinum"}}
		}, "unknown traffic class"},
		{"event cfo ramp out of range", func(sp *Spec) {
			// In range at the event frame, aliased by the end of the run.
			sp.Events = []Event{{Frame: 5, Action: ActionSetChannel, Terminal: "t0",
				Channel: &traffic.ChannelProfile{CFO: 0.1, Drift: 0.002}}}
		}, "acquisition range"},
		{"rejoin cfo checked", func(sp *Spec) {
			// A rejoining terminal's profile is validated like any other.
			sp.Events = []Event{
				{Frame: 1, Action: ActionLeave, Terminal: "t0"},
				{Frame: 3, Action: ActionJoin, Join: &TerminalSpec{
					ID: "t0", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1},
					Channel: &traffic.ChannelProfile{CFO: 0.5}}},
			}
		}, "acquisition range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := valid()
			tc.mutate(&sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("inconsistent spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the problem (%q)", err, tc.want)
			}
		})
	}
}

// The bounds above are tight: the widest grid the default carrier plan
// can space (9 carriers) and the documented noiseless Eb/N0 of 0 pass.
func TestValidateBoundsAreTight(t *testing.T) {
	sp, err := Preset("clean")
	if err != nil {
		t.Fatal(err)
	}
	sp.Traffic.Carriers = 9
	sp.Traffic.EbN0dB = 0
	if err := sp.Validate(); err != nil {
		t.Fatalf("9 carriers at Eb/N0 0 rejected: %v", err)
	}
}

// An in-range Doppler ramp that a later set-channel event retires must
// validate: the segment check ends at the profile change.
func TestValidateSegmentedRamp(t *testing.T) {
	sp, _ := Preset("clean")
	sp.Terminals[0].Channel = &traffic.ChannelProfile{CFO: 0.1, Drift: 0.002}
	sp.Events = []Event{
		// Without this event the ramp reaches 0.1 + 0.002*39 = 0.178.
		{Frame: 10, Action: ActionSetChannel, Terminal: sp.Terminals[0].ID,
			Channel: &traffic.ChannelProfile{CFO: 0.05}},
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("segmented ramp rejected: %v", err)
	}
}
