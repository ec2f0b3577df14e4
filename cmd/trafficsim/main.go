// Command trafficsim runs sustained MF-TDMA load through the full
// regenerative loop, driven by the declarative scenario runtime: a
// scenario spec (from -scenario file.json, a -preset name, or built
// from the flags) describes the system, the traffic shape, the terminal
// population with optional per-terminal channel impairments, and a
// frame-indexed event script (decoder swaps, waveform migrations, fade
// ramps, joins/leaves, queue changes) executed at frame boundaries
// through the live control plane. The run report covers throughput,
// latency, queue depths and losses; -verify additionally demodulates
// the transmitted downlink on a ground receiver and checks every bit.
//
// When a spec or preset is given, explicitly set flags are layered onto
// it as overrides (e.g. -preset swap-under-load -frames 20 truncates
// the run; population flags rebuild the terminal set).
//
// A long run is observable while it runs: -telemetry <file|-> streams
// one JSON flush line per -flush-every frames through the
// internal/telemetry backbone — every integer field of the report as a
// cumulative counter under its -report-json name (top level, class.<c>.*
// and pop.<name>.*), queue-depth gauges, per-stage engine timers with
// p50/p90/p99, Go runtime health — and -report-json writes the
// end-of-run traffic.Report as JSON; tlmcheck reconciles the two.
//
// Exit status: 0 on a completed run, 1 on a bad spec or flag, a failed
// run, or — with -verify — any burst the ground receiver lost or decoded
// with bit errors. The downlink it listens to is noiseless whatever the
// uplink Eb/N0, so a verify loss is a defect, not weather; uplink losses
// on a noisy channel are the experiment and stay exit 0.
//
// Usage:
//
//	trafficsim -list-presets
//	trafficsim -preset swap-under-load
//	trafficsim -preset qos-priority
//	trafficsim -scenario mission.json -frames 50
//	trafficsim -frames 100 -carriers 3 -slots 4 -codec conv-r1/2-k9 -verify
//	trafficsim -frames 40 -ebn0 6 -cfo 0.1 -timing-spread -phase-spread -verify
//	trafficsim -frames 40 -class mix -scheduler drr -drr-weights 4,2,1 -verify
//	trafficsim -preset impaired -frames 200 -telemetry - -flush-every 10
//	trafficsim -preset qos-priority -telemetry run.jsonl -report-json report.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its environment passed in: it returns the process
// exit status instead of exiting, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fatal := func(v ...any) int {
		fmt.Fprintln(stderr, append([]any{"trafficsim:"}, v...)...)
		return 1
	}
	fs := flag.NewFlagSet("trafficsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioFile := fs.String("scenario", "", "run a scenario spec from a JSON file")
	preset := fs.String("preset", "", "run a registered preset scenario")
	listPresets := fs.Bool("list-presets", false, "list registered presets and exit")
	events := fs.Bool("events", true, "log scripted events as they fire")
	frames := fs.Int("frames", 100, "frames to run")
	carriers := fs.Int("carriers", 3, "MF-TDMA carriers (= downlink beams)")
	slots := fs.Int("slots", 4, "slots per carrier per frame")
	slotSymbols := fs.Int("slot-symbols", 320, "symbols per slot including guard")
	codec := fs.String("codec", "conv-r1/2-k9", "decoder: uncoded, conv-r1/2-k9, conv-r1/3-k9, turbo-r1/3")
	model := fs.String("model", "mix", "population model: cbr, onoff, hotspot or mix")
	terminals := fs.Int("terminals", 4, "terminal count")
	cells := fs.Int("cells", 1, "cells per frame a terminal demands (cbr/onoff/hotspot base)")
	count := fs.Int("count", 0, "lift each population entry to an aggregate of this many members spanning all beams (two-tier model)")
	tracers := fs.Int("tracers", 4, "members per aggregate population kept on the full per-terminal path (with -count)")
	queue := fs.Int("queue", 16, "per-(beam, class) downlink queue depth (packets)")
	policy := fs.String("policy", "drop-tail", "overload policy: drop-tail or backpressure")
	scheduler := fs.String("scheduler", "fifo", "downlink scheduler: fifo, strict or drr")
	beFloor := fs.Int("be-floor", 0, "best-effort slot floor per beam per frame (strict scheduler)")
	drrWeights := fs.String("drr-weights", "4,2,1", "DRR class weights as ef,af,be (drr scheduler)")
	class := fs.String("class", "", "traffic class for the built population: be, af, ef or mix (rotates ef/af/be)")
	ebn0 := fs.Float64("ebn0", 9, "uplink Eb/N0 in dB (0 = noiseless, negative is rejected)")
	verify := fs.Bool("verify", false, "ground-demodulate the downlink and check every bit")
	seed := fs.Int64("seed", 1, "random seed")
	cfoMax := fs.Float64("cfo", 0, "spread per-terminal carrier frequency offsets across ±cfo cycles/symbol (acquisition range ±0.1)")
	drift := fs.Float64("drift", 0, "Doppler ramp on the last terminal, cycles/symbol per frame")
	timingSpread := fs.Bool("timing-spread", false, "spread per-terminal fractional timing offsets across [0, 1)")
	phaseSpread := fs.Bool("phase-spread", false, "spread per-terminal carrier phase offsets across (-pi, pi]")
	telemetryOut := fs.String("telemetry", "", "stream telemetry flush lines to a file (- for stdout)")
	flushEvery := fs.Int("flush-every", 10, "frames per telemetry flush (0 with -flush-interval for interval-only flushing)")
	flushInterval := fs.Duration("flush-interval", 0, "also flush when this much wall-clock time has passed (0 disables)")
	reportJSON := fs.String("report-json", "", "write the end-of-run report as JSON to a file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listPresets {
		for _, n := range scenario.PresetNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	spec, err := resolveSpec(*scenarioFile, *preset)
	if err != nil {
		return fatal(err)
	}
	fromFlags := *scenarioFile == "" && *preset == ""

	// Layer explicitly set flags (all of them, when no spec/preset was
	// given) onto the resolved spec.
	use := func(name string) bool { return fromFlags || set[name] }
	if use("frames") {
		spec.Frames = *frames
	}
	if use("carriers") {
		spec.Traffic.Carriers = *carriers
		spec.System.Carriers = 0 // follow the frame
	}
	if use("slots") {
		spec.Traffic.Slots = *slots
	}
	if use("slot-symbols") {
		spec.Traffic.SlotSymbols = *slotSymbols
	}
	if use("codec") {
		spec.System.Codec = *codec
	}
	if use("queue") {
		spec.Traffic.QueueDepth = *queue
	}
	if use("policy") {
		spec.Traffic.Policy = *policy
	}
	if use("ebn0") {
		spec.Traffic.EbN0dB = *ebn0
	}
	if use("verify") {
		spec.Traffic.Verify = *verify
	}
	if use("seed") {
		spec.Traffic.Seed = *seed
	}
	// Everything below derives from the layered grid, so it must be
	// sound first (the full Validate runs once the spec is complete).
	if err := spec.ValidateShape(); err != nil {
		return fatal(err)
	}
	// Population flags rebuild the terminal set; a bare -carriers
	// override keeps a preset's population (and its impairments) and
	// just remaps beams into the new downlink range. Impairment flags
	// re-sweep profiles over whatever population results.
	if fromFlags || set["model"] || set["terminals"] || set["cells"] {
		terms, err := scenario.PopulationSpec(*model, *terminals, *cells, spec.Traffic.Carriers)
		if err != nil {
			return fatal(err)
		}
		spec.Terminals = terms
	} else if set["carriers"] {
		for i := range spec.Terminals {
			spec.Terminals[i].Beam %= spec.Traffic.Carriers
		}
		for i := range spec.Events {
			if j := spec.Events[i].Join; j != nil {
				j.Beam %= spec.Traffic.Carriers
			}
		}
	}
	if fromFlags || set["cfo"] || set["drift"] || set["timing-spread"] || set["phase-spread"] {
		scenario.ImpairSpec(spec.Terminals, *cfoMax, *drift, *timingSpread, *phaseSpread)
	}
	// Scheduler flags build a declarative scheduler onto the spec; a
	// bare default keeps a preset's (e.g. qos-priority's strict+floor).
	// A parameter flag alone implies its scheduler, so -be-floor means
	// strict and -drr-weights means drr without restating -scheduler.
	if set["scheduler"] || set["be-floor"] || set["drr-weights"] {
		kind := *scheduler
		if !set["scheduler"] {
			if set["drr-weights"] {
				kind = "drr"
			} else {
				kind = "strict"
			}
		}
		ss := &scenario.SchedulerSpec{Kind: kind}
		switch kind {
		case "strict":
			ss.BEFloor = *beFloor
		case "drr":
			if _, err := fmt.Sscanf(*drrWeights, "%d,%d,%d", &ss.WeightEF, &ss.WeightAF, &ss.WeightBE); err != nil {
				return fatal(fmt.Sprintf("-drr-weights %q: want ef,af,be integers", *drrWeights))
			}
		}
		spec.Traffic.Scheduler = ss
	}
	if set["class"] {
		for i := range spec.Terminals {
			c := *class
			if c == "mix" {
				c = []string{"ef", "af", "be"}[i%3]
			}
			spec.Terminals[i].Class = c
		}
	}
	// -count lifts every population entry to two-tier aggregate form:
	// each becomes a population of count members spanning all downlink
	// beams, with -tracers members kept on the full per-terminal path.
	if *count > 0 {
		allBeams := make([]int, spec.Traffic.Carriers)
		for i := range allBeams {
			allBeams[i] = i
		}
		tr := *tracers
		if tr > *count {
			tr = *count
		}
		for i := range spec.Terminals {
			spec.Terminals[i].Count = *count
			spec.Terminals[i].Tracers = tr
			spec.Terminals[i].Beams = allBeams
		}
	}
	// A truncated run must not strand scripted events past the horizon
	// in the banner; they simply never fire.
	if err := spec.Validate(); err != nil {
		return fatal(err)
	}

	sysCfg := core.DefaultSystemConfig()
	if n := spec.System.Carriers; n > 0 {
		sysCfg.Payload.Carriers = n
	} else if spec.Traffic.Carriers > sysCfg.Payload.Carriers {
		sysCfg.Payload.Carriers = spec.Traffic.Carriers
	}
	if n := spec.System.PayloadSymbols; n > 0 {
		sysCfg.Payload.TDMAPayloadSymbols = n
	}
	sys, err := core.NewSystem(sysCfg)
	if err != nil {
		return fatal(err)
	}
	sys.RunUntil(2)

	var opts []scenario.Option
	if *events {
		opts = append(opts, scenario.WithObserver(func(st scenario.FrameStats, _ func() *traffic.Report) {
			for _, rec := range st.Events {
				fmt.Fprintln(stdout, "event:", rec)
			}
		}))
	}
	sess, err := sys.NewSession(spec, opts...)
	if err != nil {
		return fatal(err)
	}
	defer sess.Close()

	var tel *scenario.TelemetryObserver
	var telFile *os.File
	if *telemetryOut != "" {
		w := stdout
		if *telemetryOut != "-" {
			f, err := os.Create(*telemetryOut)
			if err != nil {
				return fatal(err)
			}
			telFile, w = f, f
		}
		tel = scenario.NewTelemetryObserver(w, scenario.TelemetryConfig{
			FlushEvery:    *flushEvery,
			FlushInterval: *flushInterval,
			Source:        "trafficsim",
		})
		tel.Attach(sess)
	}

	name := spec.Name
	if name == "" {
		name = "ad hoc"
	}
	members, traced := 0, 0
	for _, t := range spec.Terminals {
		if t.Count > 0 {
			members += t.Count
			traced += t.Tracers
		} else {
			members++
		}
	}
	popDesc := fmt.Sprintf("%d terminals", len(spec.Terminals))
	if members > len(spec.Terminals) {
		popDesc = fmt.Sprintf("%d entries / %d modeled members (%d traced)", len(spec.Terminals), members, traced)
	}
	fmt.Fprintf(stdout, "trafficsim: scenario %q, %d frames, %dx%d grid, codec=%s, %s, queue=%d (%s), Eb/N0=%.1f dB, %d scripted events\n",
		name, spec.Frames, spec.Traffic.Carriers, spec.Traffic.Slots, spec.System.Codec,
		popDesc, spec.Traffic.QueueDepth, spec.Traffic.Policy, spec.Traffic.EbN0dB, len(spec.Events))

	rep, err := sess.Run(context.Background())
	if err != nil {
		return fatal(err)
	}
	if tel != nil {
		if err := tel.Close(); err != nil {
			return fatal("telemetry stream:", err)
		}
		if telFile != nil {
			if err := telFile.Close(); err != nil {
				return fatal(err)
			}
		}
	}
	if *reportJSON != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fatal(err)
		}
		if err := os.WriteFile(*reportJSON, append(data, '\n'), 0o644); err != nil {
			return fatal(err)
		}
	}
	return finish(rep, stdout, stderr)
}

// finish prints the end-of-run report and turns it into the exit
// status: 1, with the counts on stderr, when ground verification caught
// the regenerated downlink losing or corrupting a burst (with -verify
// off the two counters stay zero).
func finish(rep *traffic.Report, stdout, stderr io.Writer) int {
	fmt.Fprint(stdout, rep)
	if rep.DownlinkLost == 0 && rep.DownlinkBitErrs == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "trafficsim: ground verify failed on a noiseless downlink: %d of %d bursts lost, %d bit errors\n",
		rep.DownlinkLost, rep.DeliveredPackets, rep.DownlinkBitErrs)
	return 1
}

// resolveSpec picks the base spec: a file, a preset, or the flag-built
// default shape (filled in by the override layer above).
func resolveSpec(file, preset string) (scenario.Spec, error) {
	switch {
	case file != "" && preset != "":
		return scenario.Spec{}, fmt.Errorf("use -scenario or -preset, not both")
	case file != "":
		return scenario.LoadFile(file)
	case preset != "":
		return scenario.Preset(preset)
	default:
		sp := scenario.Spec{
			Name:    "flags",
			Traffic: scenario.TrafficSpec{GuardSymbols: 16},
		}
		return sp, nil
	}
}
