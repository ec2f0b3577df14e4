package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// An unknown -proto, -target or -action is refused on stderr with a
// non-zero exit before anything runs (each used to fall through to a
// default silently). The test re-executes its own binary as nccctl.
func TestRejectsUnknownValues(t *testing.T) {
	if args := os.Getenv("NCCCTL_ARGS"); args != "" {
		os.Args = append([]string{"nccctl"}, strings.Fields(args)...)
		main()
		return
	}
	for _, c := range []struct{ args, want string }{
		{"-proto bogus", `"bogus"`},
		{"-action waveform -target bogus", `"bogus"`},
		{"-action bogus", `"bogus"`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRejectsUnknownValues$")
		cmd.Env = append(os.Environ(), "NCCCTL_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		if _, failed := err.(*exec.ExitError); !failed {
			t.Fatalf("nccctl %s: err %v, want a non-zero exit", c.args, err)
		}
		if !strings.Contains(string(out), c.want) || strings.Contains(string(out), "reconfiguration reports") {
			t.Fatalf("nccctl %s: output %q does not name the value or ran anyway", c.args, out)
		}
	}
}
