package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

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
