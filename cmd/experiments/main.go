// Command experiments regenerates every table and figure of the paper's
// evaluation (see the experiment index in DESIGN.md) and prints them in
// paper-shaped form.
//
// Usage:
//
//	experiments [-quick] [-only E3]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/gates"
)

// sizes are the sample sizes of a run: full, or reduced under -quick.
type sizes struct {
	quick      bool
	deviceDays float64
	berBits    int
	e6Trials   int
	campaign   int
}

// table lists every experiment in print order: it drives both the
// dispatch and the message that refuses an unknown -only. A run reports
// false when the experiment's own pass criteria failed.
var table = []struct {
	id  string
	run func(out io.Writer, sz sizes) bool
}{
	{"E1", always(func(out io.Writer, sz sizes) {
		experiments.E1Table1(sz.deviceDays, 1).Print(out)
	})},
	{"E2", always(func(out io.Writer, sz sizes) {
		experiments.E2Complexity(8).Print(out)
		fmt.Fprintln(out, gates.TDMATimingRecovery(6).Report())
		fmt.Fprintln(out, gates.CDMADemodulator(1).Report())
	})},
	{"E3", always(func(out io.Writer, sz sizes) {
		res := experiments.E3Migration([]float64{2, 4, 6, 8}, sz.berBits, 42)
		res.Table.Print(out)
		fmt.Fprintf(out, "   max implementation loss vs theory: %.2f dB\n\n", res.MaxDegradationdB)
	})},
	{"E4", always(func(out io.Writer, sz sizes) {
		experiments.E4Timeline(3).Table.Print(out)
	})},
	{"E5", always(func(out io.Writer, sz sizes) {
		files := []int{4 * 1024, 64 * 1024, 512 * 1024}
		if sz.quick {
			files = []int{4 * 1024, 64 * 1024}
		}
		experiments.E5Protocols(files, 4).Print(out)
	})},
	{"E6", always(func(out io.Writer, sz sizes) {
		experiments.E6Mitigation(sz.e6Trials, 0.01, sz.campaign, 5).Table.Print(out)
		experiments.E6ScrubbingSweep(sz.campaign, []int{0, 8, 4, 2, 1}, 6).Print(out)
	})},
	{"E7", always(func(out io.Writer, sz sizes) {
		experiments.E7Partitioning(7).Table.Print(out)
	})},
	{"E8", always(func(out io.Writer, sz sizes) {
		experiments.E8Decoders([]float64{1, 2, 3, 4}, sz.berBits, 8).Table.Print(out)
	})},
	{"E9", always(func(out io.Writer, sz sizes) {
		experiments.E9Power().Print(out)
		experiments.E6PayloadAvailabilityComparison(sz.campaign, 9).Print(out)
	})},
	{"E11", func(out io.Writer, sz sizes) bool {
		cfg := experiments.DefaultE11Config()
		if sz.quick {
			cfg.Frames = 20
		}
		res := experiments.E11Traffic(cfg)
		res.Table.Print(out)
		if !res.BitExact || !res.SwapOK {
			fmt.Fprintf(out, "   E11 FAILED: bitExact=%v swapOK=%v\n", res.BitExact, res.SwapOK)
			return false
		}
		return true
	}},
	{"E12", func(out io.Writer, sz sizes) bool {
		cfg := experiments.DefaultE12Config()
		if sz.quick {
			cfg.Frames = 10
			cfg.EbN0dB = []float64{6, 9}
		}
		res := experiments.E12Impairments(cfg)
		res.Table.Print(out)
		if !res.ZeroErrors || !res.AcqOK {
			fmt.Fprintf(out, "   E12 FAILED: zeroErrors=%v acqOK=%v\n", res.ZeroErrors, res.AcqOK)
			return false
		}
		return true
	}},
	{"E13", func(out io.Writer, sz sizes) bool {
		cfg := experiments.DefaultE13Config()
		if sz.quick {
			cfg.Frames = 16
		}
		res := experiments.E13QoS(cfg)
		res.Table.Print(out)
		if !res.BitExact || !res.EFProtected || !res.OverloadAbsorbed {
			fmt.Fprintf(out, "   E13 FAILED: bitExact=%v efProtected=%v overloadAbsorbed=%v\n",
				res.BitExact, res.EFProtected, res.OverloadAbsorbed)
			return false
		}
		return true
	}},
	{"ablations", func(out io.Writer, sz sizes) bool {
		bursts := 40
		if sz.quick {
			bursts = 10
		}
		experiments.AblationTiming([]int{64, 256, 1024}, bursts, 10, 3).Print(out)
		experiments.AblationScrubbers(sz.campaign, 4).Print(out)
		experiments.AblationTCModes(5).Print(out)
		return true
	}},
}

// always is an experiment with no pass criteria of its own.
func always(show func(out io.Writer, sz sizes)) func(io.Writer, sizes) bool {
	return func(out io.Writer, sz sizes) bool { show(out, sz); return true }
}

func main() {
	quick := flag.Bool("quick", false, "reduced sample sizes (~1s total)")
	only := flag.String("only", "", "run a single experiment (E1..E13, ablations)")
	flag.Parse()
	os.Exit(run(os.Stdout, *quick, *only))
}

// run prints the selected experiments to out and returns the exit
// status: 0, 1 when an experiment's own pass criteria failed, or 2 for
// an unknown -only (refused on stderr).
func run(out io.Writer, quick bool, only string) int {
	sz := sizes{deviceDays: 20000, berBits: 60000, e6Trials: 5_000_000, campaign: 250}
	if quick {
		sz = sizes{quick: true, deviceDays: 2000, berBits: 6000, e6Trials: 500_000, campaign: 80}
	}

	ran := false
	for _, e := range table {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		ran = true
		if !e.run(out, sz) {
			return 1
		}
	}
	if !ran {
		ids := make([]string, len(table))
		for i, e := range table {
			ids[i] = e.id
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown -only %q (want one of %s)\n", only, strings.Join(ids, ", "))
		return 2
	}
	return 0
}
