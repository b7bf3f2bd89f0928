package core

import (
	"errors"
	"fmt"

	"tartree/internal/tia"
)

// Epochs discretizes the time axis (Section 3.1: "each epoch may be a
// second, an hour or of varied lengths ... depending on the application").
// Because the TIA indexes ⟨ts, te, agg⟩ intervals rather than timestamps,
// the TAR-tree supports non-uniform epoch grids — one of the paper's
// differentiators against the aRB-tree, whose B-tree cannot index time
// intervals.
type Epochs interface {
	// EpochOf returns the half-open epoch [start, end) containing t.
	// t must not precede Origin.
	EpochOf(t int64) tia.Interval
	// Count returns the number of epochs that begin in [Origin, until].
	Count(until int64) int64
	// Origin returns the start of the first epoch (the application's t0).
	Origin() int64
}

// FixedEpochs is the uniform grid: epoch i covers
// [Start + i·Length, Start + (i+1)·Length).
type FixedEpochs struct {
	Start  int64
	Length int64
}

// EpochOf implements Epochs.
func (e FixedEpochs) EpochOf(t int64) tia.Interval {
	i := (t - e.Start) / e.Length
	s := e.Start + i*e.Length
	return tia.Interval{Start: s, End: s + e.Length}
}

// Count implements Epochs.
func (e FixedEpochs) Count(until int64) int64 {
	if until <= e.Start {
		return 1
	}
	return (until-e.Start)/e.Length + 1
}

// Origin implements Epochs.
func (e FixedEpochs) Origin() int64 { return e.Start }

// GeometricEpochs is the varied-length grid the paper sketches ("one hour,
// two hours, four hours, eight hours and so on"): epoch i has length
// First·2^i, so epoch i covers [Start + First·(2^i − 1), Start + First·(2^{i+1} − 1)).
type GeometricEpochs struct {
	Start int64
	First int64 // length of the first epoch
}

// EpochOf implements Epochs.
func (e GeometricEpochs) EpochOf(t int64) tia.Interval {
	off := t - e.Start
	// Find i with First·(2^i − 1) <= off < First·(2^{i+1} − 1).
	var i uint
	for ; i < 62; i++ {
		if off < e.First*((1<<(i+1))-1) {
			break
		}
	}
	lo := e.Start + e.First*((1<<i)-1)
	hi := e.Start + e.First*((1<<(i+1))-1)
	return tia.Interval{Start: lo, End: hi}
}

// Count implements Epochs.
func (e GeometricEpochs) Count(until int64) int64 {
	if until <= e.Start {
		return 1
	}
	n := int64(0)
	for i := uint(0); i < 62; i++ {
		if e.Start+e.First*((1<<i)-1) > until {
			break
		}
		n++
	}
	return n
}

// Origin implements Epochs.
func (e GeometricEpochs) Origin() int64 { return e.Start }

// validateEpochs checks an Epochs implementation for basic sanity.
func validateEpochs(e Epochs) error {
	if e == nil {
		return errors.New("core: nil epochs")
	}
	iv := e.EpochOf(e.Origin())
	if iv.Start != e.Origin() || iv.End <= iv.Start {
		return fmt.Errorf("core: epochs misaligned at origin: %+v", iv)
	}
	return nil
}
