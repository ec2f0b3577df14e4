// Package stats is the shared sample-reduction helper under the
// telemetry backbone and the campaign runner: one nearest-rank
// percentile implementation and one min/mean/max/p50/p90/p99 summary
// form, so a timer flush in a live feed and a campaign-level BER
// distribution in a CAMPAIGN_*.json artifact reduce their samples the
// exact same way and their numbers are directly comparable.
package stats

import (
	"math"
	"sort"
)

// Summary is the six-figure reduction of one sample set. The JSON tags
// are the campaign-artifact wire form; telemetry.TimerStats mirrors the
// same fields per flush interval.
type Summary struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summarize sorts samples in place and reduces them to a Summary. An
// empty set reduces to the zero Summary (Count 0); callers that need to
// distinguish "no samples" from "all zeros" check Count.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return Summary{
		Count: n,
		Min:   samples[0],
		Mean:  sum / float64(n),
		Max:   samples[n-1],
		P50:   Percentile(samples, 0.50),
		P90:   Percentile(samples, 0.90),
		P99:   Percentile(samples, 0.99),
	}
}

// Percentile is the nearest-rank percentile of an ascending-sorted
// slice: the smallest sample with at least q·n samples at or below it.
// An empty slice reduces to 0.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(q*float64(len(sorted)))), 1), len(sorted))
	return sorted[rank-1]
}
