package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childArgs selects one child phase. Every phase of every workload runs
// in its own process (a re-exec of this binary), so peak RSS and cold
// set-up are per workload and the process-wide FFT-plan and filter-tap
// caches are never shared between phases.
type childArgs struct {
	Kind     string // setup, timed or trace
	Workload string
	Seed     int64
	Seconds  float64
	Procs    int
	Smoke    bool
	OutDir   string
}

func (a childArgs) lengths() lengths {
	if a.Smoke {
		return smokeLengths
	}
	return fullLengths
}

// childResult is what a child prints: scalar values by metric name,
// repeated samples behind the values that have a spread, exact counts,
// and the violated correctness checks.
type childResult struct {
	Kind        string               `json:"kind"`
	Values      map[string]float64   `json:"values"`
	Samples     map[string][]float64 `json:"samples,omitempty"`
	Shares      map[string]float64   `json:"shares,omitempty"` // top-level span share of the 1-core step
	Frames      int                  `json:"frames"`           // timed frames
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	DigestWarm  string               `json:"digest_warm"`            // after set-up
	DigestEarly string               `json:"digest_early,omitempty"` // at timed frame lengths.trace
	Digest      string               `json:"digest,omitempty"`       // at timed frame lengths.count
	Failures    []string             `json:"failures,omitempty"`
}

func newChildResult(kind string) *childResult {
	return &childResult{Kind: kind, Values: map[string]float64{}, Samples: map[string][]float64{}}
}

func (r *childResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// runChild executes one phase in this process.
func runChild(a childArgs) (*childResult, error) {
	w, err := workloadByName(a.Workload)
	if err != nil {
		return nil, err
	}
	if a.OutDir == "" {
		return nil, fmt.Errorf("no -outdir")
	}
	procs := a.Procs
	if a.Kind == "trace" {
		// One thread: spans are additive and a parent's self time means
		// something.
		procs = 1
	}
	if procs < 1 {
		return nil, fmt.Errorf("-procs %d", procs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	switch {
	case a.Kind == "trace":
		return traceChild(w, a)
	case w.Campaign:
		return campaignChild(w, a)
	default:
		return steadyChild(w, a)
	}
}

// spawnProcess runs one phase in a fresh child process and decodes the
// result it prints.
func spawnProcess(a childArgs) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-child", a.Kind, "-workload", a.Workload,
		"-seed", strconv.FormatInt(a.Seed, 10),
		"-seconds", strconv.FormatFloat(a.Seconds, 'g', -1, 64),
		"-procs", strconv.Itoa(a.Procs),
		"-outdir", a.OutDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", a.Kind, a.Workload, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child of %s: bad result: %w", a.Kind, a.Workload, err)
	}
	return &res, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's resident high-water mark: VmHWM, or the
// rusage figure where /proc is absent.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// provenance records where a result came from.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Generated  string `json:"generated"`
}

func newProvenance(procs int, seed int64) provenance {
	return provenance{
		Commit:     commitID(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		Seed:       seed,
		Generated:  time.Now().UTC().Format(time.RFC3339),
	}
}

// commitID is the vcs stamp of the build, or git's answer, or "unknown"
// (the benchmark also runs in checkouts that are not repositories).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}
