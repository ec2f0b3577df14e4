//go:build !race

package campaign

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
