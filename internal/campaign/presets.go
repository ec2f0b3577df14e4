package campaign

import "fmt"

// presets is the built-in campaign registry, mirroring the scenario
// preset registry: constructors, not values, so every caller gets a
// fresh spec.
var presets = map[string]func() Spec{
	"ebn0-sweep": ebn0Sweep,
}

// PresetNames lists the built-in campaigns, sorted.
func PresetNames() []string { return sortedKeys(presets) }

// Preset returns a fresh copy of the named built-in campaign.
func Preset(name string) (Spec, error) {
	f, ok := presets[name]
	if !ok {
		return Spec{}, fmt.Errorf("campaign: unknown preset %q (one of %v)", name, PresetNames())
	}
	return f(), nil
}

func f64(v float64) *float64 { return &v }

// ebn0Sweep is the golden campaign: the impaired scenario preset swept
// over four uplink Eb/N0 operating points with eight Monte Carlo seeds
// each — 32 sessions. The gates encode the waterfall the convolutional
// code should exhibit: nonzero but bounded coded BER at 3 dB, clean
// decode from 6 dB up, and link-level goodput and loss floors that hold
// at every point.
func ebn0Sweep() Spec {
	return Spec{
		Name:         "ebn0-sweep",
		Description:  "impaired preset × 8 seeds × 4 uplink Eb/N0 points",
		BasePreset:   "impaired",
		Seed:         7041,
		RunsPerPoint: 8,
		Axes: []AxisSpec{
			{Kind: "ebn0", Values: []any{3.0, 6.0, 9.0, 12.0}},
		},
		Reducers: []string{"ber", "goodput", "latency", "drops", "uplink_failures"},
		Gates: []Gate{
			// The 3 dB point sits on the waterfall: coded errors happen
			// (measured max BER 0.115 over the 8 seeds), but decode must
			// not collapse entirely.
			{MaxBER: f64(0.15), Where: map[string][]any{"ebn0": {3.0}}},
			// From 6 dB up the code must decode essentially clean
			// (measured max 1.8e-4 at 6 dB, zero above).
			{MaxBER: f64(2e-3), Where: map[string][]any{"ebn0": {6.0, 9.0, 12.0}}},
			// Link-level floors at every operating point; the 3 dB point
			// still delivers 4.7e5 bps of its 9.2e5 bps clean-channel
			// goodput.
			{MinGoodput: f64(4e5), MaxDrops: f64(0), MaxLatency: f64(8)},
		},
	}
}
