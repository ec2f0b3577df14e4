// Command radbench sweeps the radiation/mitigation space of §4: SEU
// rates by orbit and solar activity, TID lifetime budgets, scrubbing
// interval trades, and the payload-level availability of a live
// demodulator under fault injection.
//
// Usage:
//
//	radbench -steps 300 -sweep all
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/radiation"
)

func main() {
	steps := flag.Int("steps", 250, "campaign steps (2 days each)")
	sweep := flag.String("sweep", "all", "environment, scrubbing, availability or all")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	switch *sweep {
	case "environment", "scrubbing", "availability", "all":
	default:
		fmt.Fprintf(os.Stderr, "radbench: unknown sweep %q (environment, scrubbing, availability or all)\n", *sweep)
		os.Exit(2)
	}
	want := func(s string) bool { return *sweep == "all" || *sweep == s }

	if want("environment") {
		fmt.Println("== SEU rates by environment (err/bit/day) ==")
		for _, orbit := range []radiation.Orbit{radiation.GEO, radiation.LEO} {
			for _, act := range []radiation.SolarActivity{radiation.SolarQuiet, radiation.SolarActive, radiation.SolarFlare} {
				env := radiation.Environment{Orbit: orbit, Activity: act}
				for _, prof := range []radiation.DeviceProfile{radiation.MH1RT(), radiation.SRAMFPGA()} {
					inj := radiation.NewInjector(prof, env, *seed)
					fmt.Printf("  %-4s %-7s %-10s %.2e\n", orbit, act, prof.Name, inj.RatePerBitDay())
				}
			}
		}
		fmt.Println()
		fmt.Println("== TID lifetime (years, GEO quiet) ==")
		for _, prof := range []radiation.DeviceProfile{radiation.MH1RT(), radiation.MH1RTNext(), radiation.SRAMFPGA()} {
			dt := radiation.NewDoseTracker(prof)
			env := radiation.Environment{Orbit: radiation.GEO, Activity: radiation.SolarQuiet}
			fmt.Printf("  %-14s %.0f\n", prof.Name, dt.MarginYears(env))
		}
		fmt.Println()
	}
	if want("scrubbing") {
		experiments.E6ScrubbingSweep(*steps, []int{0, 16, 8, 4, 2, 1}, *seed).Print(os.Stdout)
		experiments.AblationScrubbers(*steps, *seed).Print(os.Stdout)
	}
	if want("availability") {
		experiments.E6PayloadAvailabilityComparison(*steps, *seed).Print(os.Stdout)
	}
}
