package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/stats"
	"repro/internal/traffic"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the repo's nearest-rank p-th percentile of xs (0 for
// none); xs is not modified.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return stats.Percentile(s, p/100)
}

// blockMedian reduces repeated samples of one quantity — block rates of
// a steady run, repetitions of a campaign, set-ups in fresh processes —
// to the reported value and its spread. One preempted block moves a
// whole-run mean by its full weight and the median not at all.
func blockMedian(samples []float64, unit string) metric {
	if len(samples) == 0 {
		return metric{Unit: unit}
	}
	return metric{Value: median(samples), Unit: unit, N: len(samples),
		Lo: slices.Min(samples), Hi: slices.Max(samples)}
}

// withSpread attaches the spread of per-block samples to a value taken
// over the whole timed region.
func withSpread(value float64, samples []float64, unit string) metric {
	m := blockMedian(samples, unit)
	m.Value = value
	return m
}

func fnvHex(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// simDigest is the FNV-64 of a report's JSON with the wall clock zeroed:
// everything the simulation computed, nothing the host contributed.
func simDigest(rep *traffic.Report) string {
	r := *rep
	r.WallSeconds = 0
	data, err := json.Marshal(&r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fnvHex(data)
}
