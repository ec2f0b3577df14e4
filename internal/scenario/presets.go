package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/traffic"
)

// presets is the registry of named scenario specs. Builders return a
// fresh Spec per call so callers may mutate freely.
var presets = map[string]func() Spec{
	"clean":           Clean,
	"impaired":        Impaired,
	"hotspot":         HotspotFlashCrowd,
	"backpressure":    BackpressureSpec,
	"swap-under-load": SwapUnderLoad,
	"fade-ramp":       FadeRamp,
	"qos-priority":    QoSPriority,
	"megapop":         Megapop,
}

// Preset returns the named preset spec.
func Preset(name string) (Spec, error) {
	b, ok := presets[name]
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown preset %q (one of %v)", name, PresetNames())
	}
	return b(), nil
}

// PresetNames lists the registered presets in sorted order.
func PresetNames() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// baseTraffic is the 3-carrier × 4-slot grid the PR 2/PR 3 studies
// standardized on, verified end to end.
func baseTraffic(seed int64) TrafficSpec {
	return TrafficSpec{
		Carriers:     3,
		Slots:        4,
		SlotSymbols:  320,
		GuardSymbols: 16,
		QueueDepth:   16,
		Policy:       "drop-tail",
		EbN0dB:       9,
		Verify:       true,
		Seed:         seed,
	}
}

// MixedPopulationSpec is the E11 study population: CBR background, a
// bursty on/off source and a hotspot, beams round-robin over the
// downlink carriers.
func MixedPopulationSpec(beams int) []TerminalSpec {
	models := []ModelSpec{
		{Kind: "cbr", Cells: 1},
		{Kind: "cbr", Cells: 2},
		{Kind: "onoff", On: 3, Off: 2, Cells: 2, Phase: 1},
		{Kind: "hotspot", Base: 0, Surge: 5, Period: 8, Width: 2},
	}
	out := make([]TerminalSpec, len(models))
	for i, m := range models {
		out[i] = TerminalSpec{ID: fmt.Sprintf("t%d", i), Beam: i % beams, Model: m}
	}
	return out
}

// LiftSpec lifts every terminal entry to a two-tier population of count
// members homed across downlink beams 0..beams-1, with up to tracers of
// them kept on the full per-terminal path: the campaign count axis.
func LiftSpec(terms []TerminalSpec, count, tracers, beams int) error {
	if count < 1 {
		return fmt.Errorf("scenario: population count %d, must be at least 1", count)
	}
	allBeams := make([]int, beams)
	for i := range allBeams {
		allBeams[i] = i
	}
	for i := range terms {
		terms[i].Count = count
		terms[i].Tracers = min(tracers, count)
		terms[i].Beams = allBeams
	}
	return nil
}

// Clean is the baseline closed-loop run: the mixed population on ideal
// channels, ground-verified — the equivalence anchor against the direct
// traffic.Engine path.
func Clean() Spec {
	return Spec{
		Name:        "clean",
		Description: "mixed population on ideal uplinks, ground-verified closed loop",
		Frames:      40,
		System:      SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic:     baseTraffic(11),
		Terminals:   MixedPopulationSpec(3),
	}
}

// Impaired exercises the full burst synchronization chain: per-terminal
// CFO/phase/timing/gain spread across the documented acquisition range,
// one Doppler-drifting terminal, one clean control (the E12 population
// shape).
func Impaired() Spec {
	sp := Spec{
		Name:        "impaired",
		Description: "per-terminal channel impairments across the acquisition range, full sync chain",
		Frames:      40,
		System:      SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic:     baseTraffic(12),
	}
	sp.Traffic.EbN0dB = 6
	channels := []*traffic.ChannelProfile{
		{CFO: 0.1, Phase: math.Pi, Timing: 0.5, Gain: 0.9},
		{CFO: -0.1, Phase: -3.0, Timing: 0.9, Gain: 1.1},
		{CFO: 0.05, Drift: 0.0015, Phase: 1.3, Timing: 0.25},
		{CFO: -0.02, Phase: -1.8, Timing: 0.75, Gain: 1.05},
		{CFO: 0.08, Phase: 2.6, Timing: 0.1, Gain: 0.8},
		nil, // clean control rides the same sync chain
	}
	for i, c := range channels {
		sp.Terminals = append(sp.Terminals, TerminalSpec{
			ID:      fmt.Sprintf("t%d", i),
			Beam:    i % sp.Traffic.Carriers,
			Model:   ModelSpec{Kind: "cbr", Cells: 1},
			Channel: c,
		})
	}
	return sp
}

// hotspotPopulation is the flash-crowd shape shared by the hotspot and
// backpressure presets: two surging sources and a CBR aimed at beam 0
// against a shallow queue, plus a quiet control on beam 1.
func hotspotPopulation() []TerminalSpec {
	return []TerminalSpec{
		{ID: "t0", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}},
		{ID: "t1", Beam: 0, Model: ModelSpec{Kind: "hotspot", Base: 1, Surge: 6, Period: 8, Width: 3}},
		{ID: "t2", Beam: 0, Model: ModelSpec{Kind: "hotspot", Base: 0, Surge: 4, Period: 8, Width: 2}},
		{ID: "t3", Beam: 1, Model: ModelSpec{Kind: "cbr", Cells: 1}},
	}
}

// HotspotFlashCrowd overloads one beam's downlink queue: surging
// sources against a shallow drop-tail queue, with an extra surge source
// joining mid-run and leaving again — queue drops are the expected
// outcome.
func HotspotFlashCrowd() Spec {
	sp := Spec{
		Name:        "hotspot",
		Description: "flash crowd on one beam against a shallow drop-tail queue, mid-run join/leave",
		Frames:      40,
		System:      SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic:     baseTraffic(21),
		Terminals:   hotspotPopulation(),
	}
	sp.Traffic.QueueDepth = 4
	sp.Events = []Event{
		{Frame: 8, Action: ActionJoin, Join: &TerminalSpec{
			ID: "t4", Beam: 0, Model: ModelSpec{Kind: "hotspot", Base: 1, Surge: 4, Period: 8, Width: 2}}},
		{Frame: 28, Action: ActionLeave, Terminal: "t4"},
	}
	return sp
}

// BackpressureSpec runs the same flash crowd under backpressure —
// admission control throttles at the terminals instead of dropping in
// the sky — and relieves the queue bound mid-run with a scripted
// set-queue event.
func BackpressureSpec() Spec {
	sp := HotspotFlashCrowd()
	sp.Name = "backpressure"
	sp.Description = "flash crowd under backpressure admission control, queue deepened mid-run"
	sp.Traffic.Policy = "backpressure"
	sp.Traffic.Seed = 22
	sp.Events = append(sp.Events, Event{Frame: 20, Action: ActionSetQueue, QueueDepth: 8})
	return sp
}

// SwapUnderLoad is the E11 study as a script: sustained mixed traffic
// with the §2.3 decoder reconfiguration (conv → turbo) fired mid-run
// while the queues hold the traffic.
func SwapUnderLoad() Spec {
	sp := Spec{
		Name:        "swap-under-load",
		Description: "sustained mixed traffic across a mid-run conv->turbo decoder swap",
		Frames:      120,
		System:      SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic:     baseTraffic(11),
		Terminals:   MixedPopulationSpec(3),
	}
	sp.Events = []Event{
		{Frame: 60, Action: ActionSwapDecoder, Codec: "turbo-r1/3"},
	}
	return sp
}

// QoSPriority is the E13 study shape: a classed population aims an EF
// voice trickle, an AF on/off video source and a best-effort flash
// crowd at one beam, scheduled strictly by priority with a one-slot BE
// floor over per-class bounded queues — the hotspot overload lands
// entirely on the best-effort class (queue drops, deep backlog) while
// EF rides through with zero drops and zero queueing delay, and the BE
// floor keeps the crowd from starving outright. A mid-run set-class
// event upgrades the web terminal to AF, so the runtime reclassing
// path is part of the preset's pinned shape.
func QoSPriority() Spec {
	sp := Spec{
		Name:        "qos-priority",
		Description: "EF/AF/BE classes under strict priority with a BE floor: best effort absorbs a flash crowd while EF holds zero drops",
		Frames:      40,
		System:      SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic:     baseTraffic(41),
	}
	sp.Traffic.QueueDepth = 6
	sp.Traffic.Scheduler = &SchedulerSpec{Kind: "strict", BEFloor: 1}
	sp.Terminals = []TerminalSpec{
		{ID: "voice", Beam: 0, Class: "ef", Model: ModelSpec{Kind: "cbr", Cells: 1}},
		{ID: "video", Beam: 0, Class: "af", Model: ModelSpec{Kind: "onoff", On: 3, Off: 2, Cells: 2, Phase: 1}},
		{ID: "bulk", Beam: 0, Class: "be", Model: ModelSpec{Kind: "hotspot", Base: 1, Surge: 6, Period: 8, Width: 3}},
		{ID: "ctrl", Beam: 1, Class: "ef", Model: ModelSpec{Kind: "cbr", Cells: 1}},
		{ID: "web", Beam: 2, Model: ModelSpec{Kind: "cbr", Cells: 2}},
	}
	sp.Events = []Event{
		{Frame: 20, Action: ActionSetClass, Terminal: "web", Class: "af"},
	}
	return sp
}

// Megapop is the two-tier scale-out preset: 120 000 modeled terminals
// in four aggregate populations spanning a 6-beam downlink, with six
// tracer terminals per population keeping the full per-terminal path
// (sync stats, latency) alive. The thin Bernoulli classes size their
// mean offered load near the 24-cell frame capacity, while the flash
// population's surge windows slam the whole 22 000-member crowd into
// the scheduler at once — periodic overload against strict priority
// with a one-slot best-effort floor. Frame cost scales with
// populations + tracers + beams, not Count, which is the point.
func Megapop() Spec {
	sp := Spec{
		Name:        "megapop",
		Description: "120k-terminal two-tier populations over 6 beams: Bernoulli classes near capacity, periodic flash-crowd overload",
		Frames:      40,
		System:      SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic:     baseTraffic(81),
	}
	sp.Traffic.Carriers = 6
	sp.Traffic.Scheduler = &SchedulerSpec{Kind: "strict", BEFloor: 1}
	allBeams := []int{0, 1, 2, 3, 4, 5}
	sp.Terminals = []TerminalSpec{
		{ID: "web", Class: "be", Count: 60000, Tracers: 6, Beams: allBeams,
			Model: ModelSpec{Kind: "bernoulli", Prob: 0.0002, Cells: 1}},
		{ID: "video", Class: "af", Count: 30000, Tracers: 6, Beams: allBeams,
			Model: ModelSpec{Kind: "bernoulli", Prob: 0.0002, Cells: 1}},
		{ID: "voice", Class: "ef", Count: 8000, Tracers: 6, Beams: allBeams,
			Model: ModelSpec{Kind: "bernoulli", Prob: 0.0005, Cells: 1}},
		{ID: "flash", Class: "be", Count: 22000, Tracers: 6, Beams: allBeams,
			Model: ModelSpec{Kind: "hotspot", Base: 0, Surge: 1, Period: 8, Width: 2}},
	}
	return sp
}

// FadeRamp scripts a slow fade with a Doppler ramp onto one terminal of
// an initially clean population — the sync chain engages mid-run on the
// first impairing profile and disengages when the fade clears.
func FadeRamp() Spec {
	sp := Spec{
		Name:        "fade-ramp",
		Description: "scripted fade + Doppler ramp on one terminal, sync chain engages and clears mid-run",
		Frames:      40,
		System:      SystemSpec{Codec: "conv-r1/2-k9"},
		Traffic:     baseTraffic(31),
	}
	sp.Traffic.EbN0dB = 6
	sp.Terminals = []TerminalSpec{
		{ID: "t0", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 1}},
		{ID: "t1", Beam: 1, Model: ModelSpec{Kind: "cbr", Cells: 1}},
		{ID: "t2", Beam: 2, Model: ModelSpec{Kind: "onoff", On: 3, Off: 2, Cells: 2, Phase: 1}},
	}
	sp.Events = []Event{
		{Frame: 4, Action: ActionSetChannel, Terminal: "t0",
			Channel: &traffic.ChannelProfile{CFO: 0.02, Timing: 0.5, Gain: 0.95}},
		{Frame: 12, Action: ActionSetChannel, Terminal: "t0",
			Channel: &traffic.ChannelProfile{CFO: 0.04, Drift: 0.001, Timing: 0.5, Gain: 0.9}},
		{Frame: 24, Action: ActionSetChannel, Terminal: "t0",
			Channel: &traffic.ChannelProfile{CFO: 0.04, Drift: 0.001, Timing: 0.5, Gain: 0.85}},
		{Frame: 34, Action: ActionSetChannel, Terminal: "t0"}, // fade clears
	}
	return sp
}
