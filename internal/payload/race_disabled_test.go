//go:build !race

package payload

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
