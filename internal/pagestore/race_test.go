//go:build race

package pagestore

// raceEnabled skips the allocation-count tests: the race detector's
// instrumentation allocates.
const raceEnabled = true
