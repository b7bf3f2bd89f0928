//go:build race

package tia

// raceEnabled skips the allocation-count tests: the race detector's
// instrumentation allocates.
const raceEnabled = true
