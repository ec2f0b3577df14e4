package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// runReport drives run with a -report-json file and decodes it.
func runReport(t *testing.T, args ...string) (code int, rep traffic.Report, stderr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errOut bytes.Buffer
	code = run(append(args, "-report-json", path), &out, &errOut)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
	}
	return code, rep, errOut.String()
}

// A verified run of the clean preset loses nothing and exits 0.
func TestExitCleanPass(t *testing.T) {
	code, rep, stderr := runReport(t, "-preset", "clean", "-frames", "4", "-verify")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if rep.DeliveredPackets == 0 || rep.UplinkFailures != 0 || rep.DownlinkLost != 0 || rep.DownlinkBitErrs != 0 {
		t.Fatalf("clean run not clean: %d delivered, %d uplink failures, verify %d lost / %d bit errors",
			rep.DeliveredPackets, rep.UplinkFailures, rep.DownlinkLost, rep.DownlinkBitErrs)
	}
}

// Losses on a noisy uplink are the experiment, not a failure: the clean
// preset rewritten to Eb/N0 1 dB still exits 0, and the downlink it
// regenerated still verifies clean.
func TestExitNoisyUplinkLossStaysZero(t *testing.T) {
	sp, err := scenario.Preset("clean")
	if err != nil {
		t.Fatal(err)
	}
	sp.Traffic.EbN0dB = 1
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "noisy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, rep, stderr := runReport(t, "-scenario", path, "-frames", "8", "-verify")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if rep.UplinkFailures+rep.UplinkBitErrs == 0 {
		t.Fatal("Eb/N0 1 dB lost nothing on the uplink: the case does not exercise a noisy channel")
	}
	if rep.DownlinkLost != 0 || rep.DownlinkBitErrs != 0 {
		t.Fatalf("verify %d lost / %d bit errors on the noiseless downlink", rep.DownlinkLost, rep.DownlinkBitErrs)
	}
}

// A burst lost or corrupted on the noiseless downlink is a non-zero exit
// with the counts on stderr; the report still goes to stdout.
func TestExitVerifyLossIsFailure(t *testing.T) {
	for _, rep := range []traffic.Report{
		{DeliveredPackets: 30, DownlinkLost: 2},
		{DeliveredPackets: 30, DownlinkBitErrs: 7},
	} {
		var out, errOut bytes.Buffer
		if code := finish(&rep, &out, &errOut); code != 1 {
			t.Fatalf("exit %d for %d lost / %d bit errors", code, rep.DownlinkLost, rep.DownlinkBitErrs)
		}
		want := "2 of 30 bursts lost, 0 bit errors"
		if rep.DownlinkBitErrs > 0 {
			want = "0 of 30 bursts lost, 7 bit errors"
		}
		if !strings.Contains(errOut.String(), want) || out.Len() == 0 {
			t.Fatalf("stderr %q (want %q), %d bytes of report", errOut.String(), want, out.Len())
		}
	}
}

// Bad flags and bad specs are non-zero before anything runs: a run
// needs a spec, and the flags that once rebuilt one are unknown.
func TestExitBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "-no-such-flag"},
		{[]string{"-preset", "bogus"}, 1, "bogus"},
		{[]string{"-preset", "clean", "-scenario", "x.json"}, 1, "not both"},
		{[]string{"-preset", "clean", "-frames", "0"}, 1, "0 frames"},
		{nil, 1, "-scenario"},
		{nil, 1, "-preset"},
		{[]string{"-carriers", "3"}, 2, "-carriers"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != tc.code || !strings.Contains(errOut.String(), tc.want) {
			t.Fatalf("%v: exit %d (want %d), stderr %q (want %q)", tc.args, code, tc.code, errOut.String(), tc.want)
		}
	}
}
