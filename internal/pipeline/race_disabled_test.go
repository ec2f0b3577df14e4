//go:build !race

package pipeline

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
