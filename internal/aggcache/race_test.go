//go:build race

package aggcache

// raceEnabled skips the allocation-count tests: the race detector's
// instrumentation allocates.
const raceEnabled = true
