//go:build !race

package fec

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
