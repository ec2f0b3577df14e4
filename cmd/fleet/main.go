// Command fleet runs a Monte Carlo campaign: a base scenario crossed
// with a parameter grid and a seed sweep, executed concurrently over a
// bounded worker pool, reduced into per-grid-point distribution
// statistics with declarative pass/fail gates, and written as one
// machine-readable CAMPAIGN_*.json artifact with git/seed/grid
// provenance.
//
// The campaign comes from -campaign <spec.json> (the JSON schema
// internal/campaign documents) or -preset <name> (the built-in
// registry; -list-presets enumerates it). -frames, -runs and -seed
// override the spec — the CI smoke path runs the golden ebn0-sweep at
// reduced frames with -runs 2. -telemetry streams a flush line every
// -flush-every finished runs (counters for completed/failed runs, a
// wall-clock timer over per-run durations) in the same wire form the
// scenario runtime emits, so the campaign is observable while it runs.
// -cpuprofile and -memprofile write the campaign's CPU and allocation
// profiles for go tool pprof.
//
// Ctrl-C stops cleanly: in-flight sessions halt at their next frame
// boundary and the artifact is still written, marked cancelled and
// holding completed runs only. The exit status is 0 only when every
// run completed and every gate passed.
//
// Usage:
//
//	fleet -preset ebn0-sweep -workers 4
//	fleet -campaign sweep.json -out CAMPAIGN_sweep.json -telemetry - -flush-every 4
//	fleet -preset ebn0-sweep -frames 4 -runs 2 -workers 2   # CI smoke shape
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet: ")

	campaignFile := flag.String("campaign", "", "campaign spec file (JSON)")
	preset := flag.String("preset", "", "built-in campaign preset name")
	listPresets := flag.Bool("list-presets", false, "list built-in campaign presets and exit")
	workers := flag.Int("workers", pipeline.Workers(), "concurrent sessions (default GOMAXPROCS)")
	frames := flag.Int("frames", 0, "override the campaign's frame count (0 keeps the spec)")
	runs := flag.Int("runs", 0, "override runs per grid point (0 keeps the spec)")
	seed := flag.Int64("seed", 0, "override the campaign master seed (0 keeps the spec)")
	out := flag.String("out", "", "artifact path (default CAMPAIGN_<name>.json)")
	telemetryOut := flag.String("telemetry", "", "stream telemetry flush lines to a file (- for stdout)")
	flushEvery := flag.Int("flush-every", 8, "finished runs per telemetry flush")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to a file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the campaign to a file")
	flag.Parse()

	if *listPresets {
		for _, name := range campaign.PresetNames() {
			sp, _ := campaign.Preset(name) // a listed name resolves
			fmt.Printf("%-16s %s\n", name, sp.Description)
		}
		return
	}

	var sp campaign.Spec
	switch {
	case *campaignFile != "" && *preset != "":
		log.Fatal("use -campaign or -preset, not both")
	case *campaignFile != "":
		loaded, err := campaign.LoadFile(*campaignFile)
		if err != nil {
			log.Fatal(err)
		}
		sp = *loaded
	case *preset != "":
		loaded, err := campaign.Preset(*preset)
		if err != nil {
			log.Fatal(err)
		}
		sp = loaded
	default:
		log.Fatal("need -campaign <spec.json> or -preset <name> (see -list-presets)")
	}
	if *frames > 0 {
		sp.Frames = *frames
	}
	if *runs > 0 {
		sp.RunsPerPoint = *runs
	}
	if *seed != 0 {
		sp.Seed = *seed
	}
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}

	// Campaign telemetry: cumulative run counters and a wall-clock
	// per-run timer, flushed every -flush-every finished runs with the
	// finished-run count as the frame tag.
	var flusher *telemetry.Flusher
	var telFile *os.File
	var reg *telemetry.Registry
	if *telemetryOut != "" {
		w := os.Stdout
		if *telemetryOut != "-" {
			f, err := os.Create(*telemetryOut)
			if err != nil {
				log.Fatal(err)
			}
			telFile, w = f, f
		}
		reg = telemetry.NewRegistry()
		reg.Counter("campaign.runs_completed")
		reg.Counter("campaign.runs_failed")
		reg.Counter("campaign.runs_cancelled")
		reg.Timer("campaign.run_ns")
		flusher = telemetry.NewFlusher(reg, w, telemetry.WithSource("fleet"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	finished := 0
	cfg := campaign.Config{
		Workers: *workers,
		OnRun: func(o campaign.RunOutcome) {
			if reg == nil {
				return
			}
			finished++
			switch {
			case o.Cancelled:
				reg.Counter("campaign.runs_cancelled").Inc()
			case o.Err != nil:
				reg.Counter("campaign.runs_failed").Inc()
			default:
				reg.Counter("campaign.runs_completed").Inc()
				reg.Timer("campaign.run_ns").Observe(float64(o.Duration.Nanoseconds()))
			}
			if *flushEvery > 0 && finished%*flushEvery == 0 {
				if err := flusher.Flush(int64(finished)); err != nil {
					log.Fatalf("telemetry flush: %v", err)
				}
			}
		},
	}

	fmt.Printf("fleet: campaign %q, base %s, seed %d, %d point(s) × %d runs, %d workers\n",
		sp.Name, baseName(&sp), sp.Seed, gridSize(&sp), sp.RunsPerPoint, *workers)

	stopProfile, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	art, err := campaign.Execute(ctx, &sp, cfg)
	if perr := stopProfile(); perr != nil {
		log.Fatal("profile: ", perr)
	}
	if err != nil {
		log.Fatal(err)
	}
	art.Provenance = campaign.NewProvenance()

	if flusher != nil {
		// Final flush so the stream always ends on the complete totals.
		if err := flusher.Flush(int64(finished)); err != nil {
			log.Fatalf("telemetry flush: %v", err)
		}
		if telFile != nil {
			if err := telFile.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}

	path := *out
	if path == "" {
		path = "CAMPAIGN_" + sp.Name + ".json"
	}
	data, err := art.Encode()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}

	for _, pt := range art.Points {
		status := "pass"
		if pt.Runs == 0 {
			status = "empty"
		} else if !pt.Passed {
			status = "FAIL"
		}
		line := fmt.Sprintf("fleet: point %-24s runs=%d %s", pt.Label, pt.Runs, status)
		if s, ok := pt.Stats["ber"]; ok {
			line += fmt.Sprintf("  ber max=%.3g p90=%.3g", s.Max, s.P90)
		}
		if s, ok := pt.Stats["goodput"]; ok {
			line += fmt.Sprintf("  goodput min=%.4g", s.Min)
		}
		fmt.Println(line)
	}
	fmt.Printf("fleet: %d/%d runs completed (%d failed), cancelled=%v, gates passed=%v -> %s\n",
		art.CompletedRuns, art.TotalRuns, art.FailedRuns, art.Cancelled, art.GatesPassed, path)

	if art.FailedRuns > 0 || !art.GatesPassed || art.Cancelled {
		os.Exit(1)
	}
}

// baseName names the campaign's base for the banner.
func baseName(sp *campaign.Spec) string {
	if sp.BasePreset != "" {
		return "preset " + sp.BasePreset
	}
	return "inline spec"
}

// gridSize is the expanded grid-point count.
func gridSize(sp *campaign.Spec) int {
	n := 1
	for _, ax := range sp.Axes {
		n *= len(ax.Values)
	}
	return n
}
