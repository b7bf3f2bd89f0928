//go:build race

package core

// raceEnabled skips the allocation-count tests: the race detector's
// instrumentation allocates.
const raceEnabled = true
