package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// The whole -quick output is a fixed point: every experiment is a pure
// function of its parameters, so the printed tables match the golden
// byte for byte at any GOMAXPROCS, and an experiment whose pass
// criteria fail turns the exit status non-zero. A change to any table
// shows up as a diff of testdata/quick.golden;
// `go test ./cmd/experiments -run TestQuickGolden -update` rewrites it
// from the first width and still checks the second against it.
func TestQuickGolden(t *testing.T) {
	const golden = "testdata/quick.golden"
	for i, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		var out bytes.Buffer
		if code := run(&out, true, ""); code != 0 {
			t.Fatalf("GOMAXPROCS %d: experiments -quick exit status %d\n%s", procs, code, out.Bytes())
		}
		if *update && i == 0 {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(want) {
			t.Fatalf("GOMAXPROCS %d: experiments -quick differs from %s (-want +got):\n%s",
				procs, golden, lineDiff(string(want), got))
		}
	}
}

// lineDiff lists the lines at which got differs from want, by line
// number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// An unknown -only is refused on stderr with exit status 2 (it used to
// run nothing and exit 0). The test re-executes its own binary as
// experiments.
func TestRejectsUnknownOnly(t *testing.T) {
	if os.Getenv("EXPERIMENTS_ONLY") != "" {
		os.Args = []string{"experiments", "-quick", "-only", os.Getenv("EXPERIMENTS_ONLY")}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRejectsUnknownOnly$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_ONLY=E99")
	out, err := cmd.CombinedOutput()
	if exit, failed := err.(*exec.ExitError); !failed || exit.ExitCode() != 2 {
		t.Fatalf("experiments -only E99: err %v, want exit status 2", err)
	}
	if !strings.Contains(string(out), `"E99"`) || !strings.Contains(string(out), "E13, ablations") {
		t.Fatalf("experiments -only E99: output %q does not name the value and the known ids", out)
	}
}
