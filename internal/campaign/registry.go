package campaign

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Axis is one sweep-axis kind: it projects one grid value onto a cloned
// scenario spec. It mutates sp (a private clone) to the grid value v,
// which arrives as decoded JSON: float64 for numbers, string for
// strings. An axis is data to the runner, not code: the expansion core
// looks kinds up by name in axes.
type Axis func(sp *scenario.Spec, v any) error

// Reducer is one campaign statistic: it extracts a single scalar from
// one run's report; the runner summarizes the per-run scalars of each
// grid point into min/mean/max/p50/p90/p99. Reducers must be
// deterministic functions of the report — wall-clock figures would
// break the byte-identical artifact contract.
type Reducer func(rep *traffic.Report) float64

// AxisKinds lists the sweep-axis kinds, sorted.
func AxisKinds() []string { return sortedKeys(axes) }

// ReducerNames lists the campaign statistics, sorted.
func ReducerNames() []string { return sortedKeys(reducers) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func axisFor(kind string) (Axis, error) {
	a, ok := axes[kind]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown axis kind %q (one of %v)", kind, AxisKinds())
	}
	return a, nil
}

func reducerFor(name string) (Reducer, error) {
	r, ok := reducers[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown reducer %q (one of %v)", name, ReducerNames())
	}
	return r, nil
}

// asFloat coerces a decoded-JSON grid value to a float64.
func asFloat(v any) (float64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("want a number, got %T", v)
	}
	return f, nil
}

// asInt coerces a decoded-JSON grid value to an integer, rejecting
// fractional numbers instead of silently truncating them.
func asInt(v any) (int, error) {
	f, err := asFloat(v)
	if err != nil {
		return 0, err
	}
	if f != math.Trunc(f) {
		return 0, fmt.Errorf("want an integer, got %v", f)
	}
	return int(f), nil
}

// asString coerces a decoded-JSON grid value to a string.
func asString(v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("want a string, got %T", v)
	}
	return s, nil
}

// field is the axis that sets the spec field at(sp) to the grid value as
// coerces, or leaves it and returns the coercion's error.
func field[T any](as func(any) (T, error), at func(*scenario.Spec) *T) Axis {
	return func(sp *scenario.Spec, v any) error {
		x, err := as(v)
		if err == nil {
			*at(sp) = x
		}
		return err
	}
}

// axes are the sweep-axis kinds by name. Each projects one knob of the
// declarative scenario spec; the per-point spec is re-validated after
// all axes apply, so out-of-range values fail at expansion, before any
// run.
var axes = map[string]Axis{
	"ebn0":   field(asFloat, func(sp *scenario.Spec) *float64 { return &sp.Traffic.EbN0dB }),
	"frames": field(asInt, func(sp *scenario.Spec) *int { return &sp.Frames }),
	"queue":  field(asInt, func(sp *scenario.Spec) *int { return &sp.Traffic.QueueDepth }),
	"scheduler": func(sp *scenario.Spec, v any) error {
		s, err := asString(v)
		if err != nil {
			return err
		}
		switch s {
		case "fifo":
			sp.Traffic.Scheduler = &scenario.SchedulerSpec{Kind: "fifo"}
		case "strict":
			sp.Traffic.Scheduler = &scenario.SchedulerSpec{Kind: "strict", BEFloor: 1}
		case "drr":
			sp.Traffic.Scheduler = &scenario.SchedulerSpec{Kind: "drr", WeightEF: 4, WeightAF: 2, WeightBE: 1}
		default:
			return fmt.Errorf("unknown scheduler %q (fifo, strict or drr)", s)
		}
		return nil
	},
	// count lifts every terminal entry to a two-tier aggregate population
	// of that many members spanning all downlink beams (the trafficsim
	// -count shape), keeping up to 4 members per entry on the full
	// per-terminal tracer path.
	"count": func(sp *scenario.Spec, v any) error {
		n, err := asInt(v)
		if err != nil {
			return err
		}
		return scenario.LiftSpec(sp.Terminals, n, 4, sp.Traffic.Carriers)
	},
}

// reducers are the campaign-level statistics over one run's report, by
// name. All are deterministic; throughput uses the model clock, never
// the wall clock.
var reducers = map[string]Reducer{
	"ber": func(rep *traffic.Report) float64 {
		bits := 0
		for _, ts := range rep.PerTerminal {
			bits += ts.UplinkBits
		}
		for _, ps := range rep.PerPopulation {
			bits += ps.UplinkBits
		}
		if bits == 0 {
			return 0
		}
		return float64(rep.UplinkBitErrs) / float64(bits)
	},
	"goodput": func(rep *traffic.Report) float64 {
		return rep.ModelGoodputBps()
	},
	"latency": func(rep *traffic.Report) float64 {
		return rep.LatencyMean
	},
	"latency_max": func(rep *traffic.Report) float64 {
		return float64(rep.LatencyMax)
	},
	"drops": func(rep *traffic.Report) float64 {
		return float64(rep.DroppedQueue + rep.DroppedReencode)
	},
	"delivered_bits": func(rep *traffic.Report) float64 {
		return float64(rep.DeliveredBits)
	},
	"uplink_failures": func(rep *traffic.Report) float64 {
		return float64(rep.UplinkFailures)
	},
}
