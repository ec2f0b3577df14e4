// Command trafficsim runs sustained MF-TDMA load through the full
// regenerative loop, driven by the declarative scenario runtime: a
// scenario spec (from -scenario file.json or a -preset name) describes
// the system, the traffic shape, the terminal population with optional
// per-terminal channel impairments, and a frame-indexed event script
// (decoder swaps, waveform migrations, fade ramps, joins/leaves, queue
// changes) executed at frame boundaries through the live control plane.
// -frames, -seed and -verify override the spec's run length, seed and
// ground verification; everything else about a run is the spec. The
// run report covers throughput, latency, queue depths and losses;
// verification demodulates the transmitted downlink on a ground
// receiver and checks every bit.
//
// A long run is observable while it runs: -telemetry <file|-> streams
// one JSON flush line per -flush-every frames through the
// internal/telemetry backbone — every integer field of the report as a
// cumulative counter under its -report-json name (top level, class.<c>.*
// and pop.<name>.*), queue-depth gauges, per-stage engine timers with
// p50/p90/p99, Go runtime health — and -report-json writes the
// end-of-run traffic.Report as JSON; tlmcheck reconciles the two.
// -cpuprofile and -memprofile write the run's CPU and allocation
// profiles for go tool pprof.
//
// Exit status: 0 on a completed run, 1 on a missing or bad spec, a
// failed run, or — with verification on — any burst the ground receiver
// lost or decoded with bit errors, 2 on an unknown flag. The downlink it
// listens to is noiseless whatever the uplink Eb/N0, so a verify loss is
// a defect, not weather; uplink losses on a noisy channel are the
// experiment and stay exit 0.
//
// Usage:
//
//	trafficsim -list-presets
//	trafficsim -preset swap-under-load
//	trafficsim -preset clean -frames 100 -seed 9 -verify
//	trafficsim -scenario mission.json -frames 50
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
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its environment passed in: it returns the process
// exit status instead of exiting, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) (code int) {
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
	frames := fs.Int("frames", 0, "override the spec's run length in frames")
	seed := fs.Int64("seed", 0, "override the spec's random seed")
	verify := fs.Bool("verify", false, "override the spec's ground verification of every downlink bit")
	telemetryOut := fs.String("telemetry", "", "stream telemetry flush lines to a file (- for stdout)")
	flushEvery := fs.Int("flush-every", 10, "frames per telemetry flush (0 with -flush-interval for interval-only flushing)")
	flushInterval := fs.Duration("flush-interval", 0, "also flush when this much wall-clock time has passed (0 disables)")
	reportJSON := fs.String("report-json", "", "write the end-of-run report as JSON to a file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to a file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run to a file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfile, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProfile(); err != nil && code == 0 {
			code = fatal("profile:", err)
		}
	}()

	if *listPresets {
		for _, n := range scenario.PresetNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	spec, err := resolveSpec(*scenarioFile, *preset)
	if err != nil {
		return fatal(err)
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "frames":
			spec.Frames = *frames
		case "seed":
			spec.Traffic.Seed = *seed
		case "verify":
			spec.Traffic.Verify = *verify
		}
	})
	// A truncated run must not strand scripted events past the horizon
	// in the banner; they simply never fire.
	if err := spec.Validate(); err != nil {
		return fatal(err)
	}

	sysCfg := core.DefaultSystemConfig()
	sysCfg.Payload = spec.PayloadConfig()
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
	for _, t := range spec.Terminals { // Validate holds a plain terminal's tracers at 0
		members, traced = members+max(t.Count, 1), traced+t.Tracers
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

// resolveSpec loads the run's spec: a file or a preset, exactly one.
func resolveSpec(file, preset string) (scenario.Spec, error) {
	switch {
	case file != "" && preset != "":
		return scenario.Spec{}, fmt.Errorf("use -scenario or -preset, not both")
	case file != "":
		return scenario.LoadFile(file)
	case preset != "":
		return scenario.Preset(preset)
	default:
		return scenario.Spec{}, fmt.Errorf("no spec: give -scenario file.json or -preset name (-list-presets lists them)")
	}
}
