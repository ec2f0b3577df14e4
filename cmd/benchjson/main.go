// Command benchjson runs the repo's performance benchmarks and writes
// the results as machine-readable JSON (ns/op, B/op, allocs/op), so the
// perf trajectory of the pipeline and traffic-engine hot paths can be
// tracked across PRs instead of living in commit messages. The default
// set covers the receive/transmit pipelines, the clean traffic engine
// and its impaired twin (the burst-sync-chain overhead is the delta
// between the two), the scenario-session presets riding the same
// populations (the session-layer overhead is the delta to the raw
// engine benches), the switching fabric (sharded vs single-lock
// routing under concurrent workers, plus the per-scheduler slot-fill
// cost whose 0 B/op column pins the allocation-free fill path), the
// dsp kernels under the MUX/DEMUX (scalar FIR, polyphase DUC/DDC, NCO
// mixer, in internal/dsp), and the Monte Carlo campaign fleet (an N-run
// campaign sequential vs across the worker pool — the conc/seq ratio
// prices the fleet scale-out).
//
// Each benchmark set runs once per GOMAXPROCS width — 1 (the
// single-core figure PR acceptance gates compare) and NumCPU (the
// pipeline-scaling figure) — and every result records the width it ran
// at. CI runs the 1x smoke variant on every push; full runs use the go
// test defaults:
//
//	go run ./cmd/benchjson -out BENCH_PR10.json
//	go run ./cmd/benchjson -benchtime 1x -out BENCH_PR10.json   # smoke
//	go run ./cmd/benchjson -bench BenchmarkTrafficEngineMegapop \
//	    -speedup-gate Megapop -min-speedup 0.95                # concurrency gate
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Result is one benchmark measurement at one GOMAXPROCS width.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the BENCH_PRn.json layout. The header makes the artifact
// self-identifying: generation timestamp, Go version and the git commit
// the numbers were measured at (empty outside a git checkout). NumCPU
// records the host width the widest sweep entry ran at; per-result
// widths live on each Result.
type File struct {
	Generated string   `json:"generated"`
	GoVersion string   `json:"go_version"`
	GitCommit string   `json:"git_commit,omitempty"`
	NumCPU    int      `json:"num_cpu"`
	Widths    []int    `json:"gomaxprocs_widths"`
	Pattern   string   `json:"pattern"`
	Benchtime string   `json:"benchtime,omitempty"`
	Results   []Result `json:"results"`
}

// gitCommit best-effort resolves the working tree's HEAD (with a
// "-dirty" suffix when the tree has local modifications); a run outside
// a git checkout just leaves the field empty.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(status)) > 0 {
		commit += "-dirty"
	}
	return commit
}

// benchLine matches `BenchmarkName-8  100  12345 ns/op  67 B/op  8 allocs/op`
// (the -benchmem columns are optional for benchmarks that disable them).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	pattern := flag.String("bench", "BenchmarkProcessFrame|BenchmarkTransmitFrameGrid|BenchmarkTrafficEngine|BenchmarkScenarioSession|BenchmarkSwitchFabric|BenchmarkSchedulerFill|BenchmarkFIR|BenchmarkDUC|BenchmarkDDC|BenchmarkNCOMixInto|ProcessInto|BenchmarkE10|BenchmarkCampaign",
		"benchmark regexp (the pipeline + traffic + scenario + switch-fabric + dsp kernel + campaign set by default)")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (e.g. 1x for a smoke run)")
	pkgs := flag.String("pkgs", ".,./internal/dsp", "comma-separated packages to bench")
	widthsFlag := flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS widths (default: 1 and NumCPU)")
	out := flag.String("out", "BENCH_PR10.json", "output file")
	telemetryOut := flag.String("telemetry", "", "additionally emit the results as one telemetry flush line (file, or - for stdout)")
	speedupGate := flag.String("speedup-gate", "", "benchmark name regexp whose widest-width speedup over width 1 must clear -min-speedup")
	minSpeedup := flag.Float64("min-speedup", 1.0, "minimum (ns/op at width 1) / (ns/op at widest width) ratio for -speedup-gate benchmarks")
	baseline := flag.String("baseline", "", "print per-benchmark ns/op, B/op, allocs/op deltas against a previously recorded BENCH_PRn.json")
	flag.Parse()

	widths, err := parseWidths(*widthsFlag)
	if err != nil {
		log.Fatal(err)
	}
	file := File{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GitCommit: gitCommit(),
		NumCPU:    runtime.NumCPU(),
		Widths:    widths,
		Pattern:   *pattern,
		Benchtime: *benchtime,
	}
	for _, w := range widths {
		for _, pkg := range strings.Split(*pkgs, ",") {
			pkg = strings.TrimSpace(pkg)
			if pkg == "" {
				continue
			}
			res, err := runPackage(pkg, *pattern, *benchtime, w)
			if err != nil {
				log.Fatalf("%s (GOMAXPROCS=%d): %v", pkg, w, err)
			}
			file.Results = append(file.Results, res...)
		}
	}
	if len(file.Results) == 0 {
		log.Fatalf("no benchmarks matched %q in %s", *pattern, *pkgs)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	if *telemetryOut != "" {
		if err := emitTelemetry(*telemetryOut, file); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d results to %s\n", len(file.Results), *out)
	if *baseline != "" {
		if err := printBaseline(*baseline, file); err != nil {
			log.Fatal(err)
		}
	}
	if *speedupGate != "" {
		if err := checkSpeedup(file, *speedupGate, *minSpeedup); err != nil {
			log.Fatal(err)
		}
	}
}

// printBaseline loads a previously recorded artifact and prints the
// per-benchmark deltas computed by diffBaseline — the first cross-PR
// perf-trajectory view over the checked-in BENCH_PRn.json files.
func printBaseline(path string, cur File) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-baseline %s: %w", path, err)
	}
	label := base.GitCommit
	if label == "" {
		label = path
	}
	fmt.Printf("baseline: %s (%d results, generated %s)\n", label, len(base.Results), base.Generated)
	for _, line := range diffBaseline(base, cur) {
		fmt.Println(line)
	}
	return nil
}

// diffBaseline compares the current results against a baseline file,
// one line per (package, name, width) present in both (ns/op with the
// percentage change, B/op and allocs/op side by side); benchmarks only
// one side knows are summarized, not errors — suites grow across PRs.
func diffBaseline(base, cur File) []string {
	type key struct {
		pkg, name string
		width     int
	}
	baseBy := make(map[key]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[key{r.Package, r.Name, r.GOMAXPROCS}] = r
	}
	var lines []string
	matched := map[key]bool{}
	for _, r := range cur.Results {
		k := key{r.Package, r.Name, r.GOMAXPROCS}
		b, ok := baseBy[k]
		if !ok {
			lines = append(lines, fmt.Sprintf("  %-44s p%-2d (new, no baseline)", r.Name, r.GOMAXPROCS))
			continue
		}
		matched[k] = true
		lines = append(lines, fmt.Sprintf("  %-44s p%-2d ns/op %12.0f -> %12.0f (%s)  B/op %9d -> %9d  allocs %6d -> %6d",
			r.Name, r.GOMAXPROCS, b.NsPerOp, r.NsPerOp, pctDelta(b.NsPerOp, r.NsPerOp),
			b.BytesPerOp, r.BytesPerOp, b.AllocsPerOp, r.AllocsPerOp))
	}
	dropped := 0
	for _, r := range base.Results {
		if !matched[key{r.Package, r.Name, r.GOMAXPROCS}] {
			dropped++
		}
	}
	if dropped > 0 {
		lines = append(lines, fmt.Sprintf("  (%d baseline results had no current counterpart)", dropped))
	}
	return lines
}

// pctDelta renders the old→new relative change; a zero or missing old
// figure has no meaningful percentage.
func pctDelta(old, cur float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (cur-old)/old*100)
}

// checkSpeedup enforces the concurrency acceptance gate: for every
// benchmark matching the pattern, the widest-width run must be no
// slower than min× the width-1 run (min-speedup 0.95 tolerates 5%
// noise; anything lower means the sharded path regressed below
// sequential). A single-width sweep — e.g. a 1-core host — has nothing
// to compare and passes with a note.
func checkSpeedup(file File, pattern string, min float64) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("bad -speedup-gate %q: %w", pattern, err)
	}
	// ns/op per (package, name) keyed by width.
	type key struct{ pkg, name string }
	perf := map[key]map[int]float64{}
	lo, hi := 0, 0
	for _, r := range file.Results {
		if !re.MatchString(r.Name) {
			continue
		}
		k := key{r.Package, r.Name}
		if perf[k] == nil {
			perf[k] = map[int]float64{}
		}
		perf[k][r.GOMAXPROCS] = r.NsPerOp
		if lo == 0 || r.GOMAXPROCS < lo {
			lo = r.GOMAXPROCS
		}
		if r.GOMAXPROCS > hi {
			hi = r.GOMAXPROCS
		}
	}
	if len(perf) == 0 {
		return fmt.Errorf("no benchmarks matched -speedup-gate %q", pattern)
	}
	if lo == hi {
		fmt.Printf("speedup gate: single width %d, nothing to compare\n", lo)
		return nil
	}
	for k, byWidth := range perf {
		seq, okSeq := byWidth[lo]
		par, okPar := byWidth[hi]
		if !okSeq || !okPar || par == 0 {
			return fmt.Errorf("speedup gate: %s %s missing a width (have %v)", k.pkg, k.name, byWidth)
		}
		speedup := seq / par
		fmt.Printf("speedup gate: %s %dx/%dx = %.2f (min %.2f)\n", k.name, hi, lo, speedup, min)
		if speedup < min {
			return fmt.Errorf("speedup gate: %s at GOMAXPROCS=%d is %.2fx the width-1 rate, below the %.2f floor", k.name, hi, speedup, min)
		}
	}
	return nil
}

// emitTelemetry reduces the benchmark results to one flush line in the
// streaming-telemetry schema (internal/telemetry.Line), so the bench
// trajectory and a live trafficsim feed share one consumer: each result
// becomes three gauges keyed
// bench.<name>.p<gomaxprocs>.{ns_per_op,bytes_per_op,allocs_per_op}.
func emitTelemetry(path string, file File) error {
	reg := telemetry.NewRegistry()
	for _, r := range file.Results {
		key := fmt.Sprintf("bench.%s.p%d.", strings.TrimPrefix(r.Name, "Benchmark"), r.GOMAXPROCS)
		reg.Gauge(key + "ns_per_op").Set(r.NsPerOp)
		reg.Gauge(key + "bytes_per_op").Set(float64(r.BytesPerOp))
		reg.Gauge(key + "allocs_per_op").Set(float64(r.AllocsPerOp))
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	source := "benchjson"
	if file.GitCommit != "" {
		source = "benchjson@" + file.GitCommit
	}
	// Benchmarks have no frame clock; the line is tagged frame -1.
	return telemetry.NewFlusher(reg, w, telemetry.WithSource(source)).Flush(-1)
}

// parseWidths resolves the -gomaxprocs flag: explicit comma-separated
// widths, or the default {1, NumCPU} sweep (collapsed to {1} on a
// single-core host, where the two widths are the same measurement).
func parseWidths(s string) ([]int, error) {
	if s == "" {
		if n := runtime.NumCPU(); n > 1 {
			return []int{1, n}, nil
		}
		return []int{1}, nil
	}
	var widths []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -gomaxprocs entry %q", f)
		}
		widths = append(widths, w)
	}
	return widths, nil
}

// runPackage benches one package at the given GOMAXPROCS width and
// parses the text output.
func runPackage(pkg, pattern, benchtime string, gomaxprocs int) ([]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkg)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, buf.String())
	}
	var out []Result
	for _, line := range strings.Split(buf.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		r := Result{Package: pkg, Name: m[1], GOMAXPROCS: gomaxprocs}
		r.Iterations, _ = strconv.Atoi(m[2])
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		out = append(out, r)
	}
	return out, nil
}
