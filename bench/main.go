// Command bench is the repo benchmark: four closed-loop workloads run
// through scenario.Session / campaign.Execute exactly as trafficsim and
// fleet run them (ground verify on, telemetry feed on, default pipeline
// mode), six end-to-end metrics per workload with unit, direction and
// regression bound (BENCHMARK.json), correctness checks on the outputs,
// and a separate traced run at GOMAXPROCS=1 that attributes the frame
// to the repo's modules by timing calls into their public functions.
// It touches internal/ only as a caller. See README.md for the protocol.
//
// Usage (from the repo root; the program runs in bench/):
//
//	go run -C bench .                                   # all workloads, timed + traced, tables + bench/out/result-seed1.json
//	go run -C bench . -workload conv-clean -seed 2      # one workload
//	go run -C bench . -compare out/old.json out/new.json # verdict per workload x end-to-end metric
//	go run -C bench . -smoke                            # seconds-long self-check of every metric name
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1   # driver form: last stdout line is one JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 1, "added to every spec's traffic.seed / campaign seed")
		seconds      = flag.Float64("seconds", 0, "measure for at least this long on top of the workload's fixed length")
		trace        = flag.Int("trace", -1, "driver form: 0 prints the end-to-end metrics, 1 the per-layer metrics, as the last line")
		smoke        = flag.Bool("smoke", false, "tiny lengths, in-process: checks names and correctness plumbing, not speed")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		out          = flag.String("out", "", "result file (default bench/out/result-seed<N>.json)")
		child        = flag.String("child", "", "internal: run one child phase (setup, timed, trace)")
		procs        = flag.Int("procs", 0, "internal: GOMAXPROCS of the timed phases")
		outDir       = flag.String("outdir", "", "internal: scratch/output directory")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare old.json new.json")
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1)))
	}

	if *child != "" {
		a := childArgs{Kind: *child, Workload: *workloadName, Seed: *seed, Seconds: *seconds,
			Procs: *procs, Smoke: *smoke, OutDir: *outDir}
		res, err := runChild(a)
		if err != nil {
			fatal("bench child %s/%s: %v", a.Kind, a.Workload, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal("bench child: %v", err)
		}
		return
	}

	def, root, err := loadDefinition()
	if err != nil {
		fatal("bench: %v", err)
	}
	p, err := resolveProcs()
	if err != nil {
		fatal("bench: %v", err)
	}
	run := runConfig{
		Seed: *seed, Seconds: *seconds, Procs: p, Smoke: *smoke,
		OutDir: filepath.Join(root, "bench", "out"),
		Spawn:  spawnProcess,
	}
	if *smoke {
		run.Spawn = runChild // in-process: a smoke run checks plumbing, not isolation
	}
	if err := os.MkdirAll(run.OutDir, 0o755); err != nil {
		fatal("bench: %v", err)
	}

	names := workloadNames()
	if *workloadName != "" {
		if _, err := workloadByName(*workloadName); err != nil {
			fatal("bench: %v", err)
		}
		names = []string{*workloadName}
	}
	run.EndToEnd = *trace != 1
	run.PerLayer = *trace != 0

	res := result{Provenance: newProvenance(p, *seed)}
	ok := true
	for _, name := range names {
		wr := runWorkload(name, run)
		res.Workloads = append(res.Workloads, wr)
		printWorkload(os.Stdout, def, wr)
		ok = ok && wr.Correct
	}

	if *trace < 0 && !*smoke {
		path := *out
		if path == "" {
			path = filepath.Join(run.OutDir, "result-seed"+strconv.FormatInt(*seed, 10)+".json")
		}
		if err := writeResult(path, root, res); err != nil {
			fatal("bench: %v", err)
		}
		fmt.Printf("result written to %s\n", path)
	}
	if *trace >= 0 {
		if len(res.Workloads) != 1 {
			fatal("bench: -trace needs -workload")
		}
		if err := printDriverLine(os.Stdout, def, res.Workloads[0], *trace == 1); err != nil {
			fatal("bench: %v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// resolveProcs is the GOMAXPROCS the timed phases run at: min(NumCPU, 4),
// or the GOMAXPROCS environment variable when set. More threads than
// CPUs would measure the scheduler, so that is refused.
func resolveProcs() (int, error) {
	ncpu := runtime.NumCPU()
	p := min(ncpu, 4)
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("GOMAXPROCS=%q is not a positive integer", env)
		}
		p = n
	}
	if p > ncpu {
		return 0, fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this host; refusing to measure oversubscribed", p, ncpu)
	}
	return p, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
