package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// An unknown -sweep is refused on stderr with a non-zero exit (it used
// to print nothing and exit 0). The test re-executes its own binary as
// radbench.
func TestRejectsUnknownSweep(t *testing.T) {
	if os.Getenv("RADBENCH_SWEEP") != "" {
		os.Args = []string{"radbench", "-sweep", os.Getenv("RADBENCH_SWEEP")}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRejectsUnknownSweep$")
	cmd.Env = append(os.Environ(), "RADBENCH_SWEEP=bogus")
	out, err := cmd.CombinedOutput()
	if _, failed := err.(*exec.ExitError); !failed {
		t.Fatalf("radbench -sweep bogus: err %v, want a non-zero exit", err)
	}
	if !strings.Contains(string(out), `"bogus"`) {
		t.Fatalf("radbench -sweep bogus: output %q does not name the value", out)
	}
}
