// Package radiation models the space environment of §4.2: the three
// particle sources the paper lists (trapped-belt protons/electrons,
// galactic cosmic rays, solar flares), the single-event upsets they
// cause in CMOS devices, and device susceptibility profiles (SEU rate
// and total-ionizing-dose rating) calibrated to Table 1 (the ATMEL
// MH1RT space ASIC: 1.2 Mgates, 200 krad TID, 1e-7 SEU/bit/day in GEO).
//
// Substitution note: flight radiation testing is replaced by Monte-Carlo
// fault injection whose per-bit rates are anchored to the paper's Table 1
// figures; SRAM FPGA configuration memory is given a higher per-bit rate,
// consistent with the Virtex SEU literature the paper cites [13].
package radiation

import (
	"math"
	"math/rand"
)

// Orbit selects the radiation regime.
type Orbit int

// GEO is the orbit of the paper's payload and of Table 1's figures.
const GEO Orbit = 0

// String implements fmt.Stringer.
func (o Orbit) String() string { return "GEO" }

// SolarActivity scales the flare contribution.
type SolarActivity int

// Solar activity levels.
const (
	SolarQuiet SolarActivity = iota
	SolarFlare
)

// String implements fmt.Stringer.
func (s SolarActivity) String() string {
	if s == SolarQuiet {
		return "quiet"
	}
	return "flare"
}

// Environment combines orbit and solar conditions into an SEU-rate
// multiplier applied to a device's baseline susceptibility.
type Environment struct {
	Orbit    Orbit
	Activity SolarActivity
}

// SEUFactor returns the multiplier on a device's GEO-quiet SEU rate:
// flares raise the rate by an order of magnitude for their duration,
// matching the paper's "important fluxes appear during high solar
// activity".
func (e Environment) SEUFactor() float64 {
	if e.Activity == SolarFlare {
		return 20
	}
	return 1
}

// DeviceProfile is the radiation susceptibility of one part type.
type DeviceProfile struct {
	Name string
	// SEUPerBitDay is the baseline upset rate in GEO, quiet sun.
	SEUPerBitDay float64
	// TIDKrad is the total-dose rating; beyond it the device degrades
	// permanently (§4.2's threshold-voltage / mobility damage).
	TIDKrad float64
	// GateCapacity for sizing designs (NAND2 equivalents).
	GateCapacity int
}

// MH1RT is the ATMEL space ASIC of Table 1.
func MH1RT() DeviceProfile {
	return DeviceProfile{
		Name:         "MH1RT",
		SEUPerBitDay: 1e-7,
		TIDKrad:      200,
		GateCapacity: 1_200_000,
	}
}

// MH1RTNext is the projected 0.25/0.18 um generation the paper mentions:
// TID rating rises to 300 krad while the SEU rate per bit stays constant.
func MH1RTNext() DeviceProfile {
	p := MH1RT()
	p.Name = "MH1RT-0.18um"
	p.TIDKrad = 300
	return p
}

// SRAMFPGA is a Virtex-class reprogrammable part: configuration SRAM is
// roughly two orders of magnitude more upset-prone per bit than the
// hardened ASIC cells, and commercial-era TID tolerance is lower.
func SRAMFPGA() DeviceProfile {
	return DeviceProfile{
		Name:         "SRAM-FPGA",
		SEUPerBitDay: 1e-5,
		TIDKrad:      100,
		GateCapacity: 1_000_000,
	}
}

// Injector draws SEU events for a device profile in an environment.
type Injector struct {
	profile DeviceProfile
	env     Environment
	rng     *rand.Rand
}

// NewInjector builds a deterministic fault injector.
func NewInjector(profile DeviceProfile, env Environment, seed int64) *Injector {
	return &Injector{profile: profile, env: env, rng: rand.New(rand.NewSource(seed))}
}

// Upsets draws the number of upsets hitting nbits over days using a
// Poisson distribution with mean rate*nbits*days, the rate being the
// device's baseline scaled by the environment.
func (in *Injector) Upsets(nbits int, days float64) int {
	lambda := in.profile.SEUPerBitDay * in.env.SEUFactor() * float64(nbits) * days
	return in.poisson(lambda)
}

// Targets returns k distinct-ish bit positions in [0, nbits); collisions
// are allowed (a bit hit twice flips back, as in reality).
func (in *Injector) Targets(nbits, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = in.rng.Intn(nbits)
	}
	return out
}

// poisson samples Po(lambda); Knuth's method below 30, normal
// approximation above.
func (in *Injector) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		return max(int(math.Round(lambda+math.Sqrt(lambda)*in.rng.NormFloat64())), 0)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= in.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
