//go:build race

package payload

// raceEnabled reports whether the race detector instruments this build;
// allocation-count regressions are skipped under it because the runtime
// deliberately randomizes sync.Pool reuse.
const raceEnabled = true
