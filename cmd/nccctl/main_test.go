package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the binary as nccctl when NCCCTL_ARGS is set, so a test
// can re-execute it and observe the exit status.
func TestMain(m *testing.M) {
	if args := os.Getenv("NCCCTL_ARGS"); args != "" {
		os.Args = append([]string{"nccctl"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// nccctl runs the command with args and returns its combined output,
// failing the test unless it exits non-zero.
func nccctl(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "NCCCTL_ARGS="+args)
	out, err := cmd.CombinedOutput()
	if _, failed := err.(*exec.ExitError); !failed {
		t.Fatalf("nccctl %s: err %v, want a non-zero exit", args, err)
	}
	return string(out)
}

// An unknown -proto, -target or -action is refused on stderr with a
// non-zero exit before anything runs (each used to fall through to a
// default silently, and an unknown decoder was uploaded and reported OK).
func TestRejectsUnknownValues(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-proto bogus", `"bogus"`},
		{"-action waveform -target bogus", `"bogus"`},
		{"-action bogus", `"bogus"`},
		{"-action decoder -target bogus", `"bogus"`},
	} {
		out := nccctl(t, c.args)
		if !strings.Contains(out, c.want) || strings.Contains(out, "reconfiguration reports") {
			t.Fatalf("nccctl %s: output %q does not name the value or ran anyway", c.args, out)
		}
	}
}

// A reconfiguration whose report is not OK (here an upload the 1e-3 BER
// link never completes) prints the report and exits non-zero.
func TestFailedReconfigurationExitsNonZero(t *testing.T) {
	if out := nccctl(t, "-action decoder -target turbo-r1/3 -proto tftp -ber 1e-3"); !strings.Contains(out, "[FAIL(") {
		t.Fatalf("output %q has no failed report", out)
	}
}
