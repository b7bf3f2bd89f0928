package core

import (
	"fmt"
	"sort"

	"tartree/internal/tia"
)

// AddCheckIn records one check-in at POI id at time at. Check-ins are
// buffered per epoch; FlushEpochs folds every completed epoch into the
// TIAs in one batch, matching Section 4.2 ("when an epoch ends, we compute
// the aggregate of each POI by the check-ins, and then insert the non-zero
// aggregates in a batch fashion"). It refuses what ValidateCheckIn refuses.
func (t *Tree) AddCheckIn(id int64, at int64) error {
	if err := t.ValidateCheckIn(id, at); err != nil {
		return err
	}
	ep := t.opts.Epochs.EpochOf(at)
	m := t.pending[ep]
	if m == nil {
		m = make(map[int64]int64)
		t.pending[ep] = m
	}
	m[id]++
	// No cache invalidation: a buffered check-in changes nothing a query
	// reads until flushEpoch folds it into the TIAs, and that invalidates.
	t.observe(at)
	return nil
}

// ValidateCheckIn reports whether AddCheckIn takes a check-in at POI id at
// time at: the POI is indexed, and at lies inside the epoch EpochOf gives
// it — which a time before the origin does not, nor one whose epoch would
// end past math.MaxInt64 (EpochOf wraps there, and a flushed record could
// not be stored). A refusal wraps ErrInvalid.
func (t *Tree) ValidateCheckIn(id, at int64) error {
	if _, ok := t.pois[id]; !ok {
		return fmt.Errorf("%w: check-in for unknown POI %d", ErrInvalid, id)
	}
	if _, ok := t.epochOf(at); !ok {
		return fmt.Errorf("%w: check-in at %d is not inside an epoch of the grid (origin %d)", ErrInvalid, at, t.opts.Epochs.Origin())
	}
	return nil
}

// PendingCheckIns returns the number of buffered, not yet flushed check-ins.
func (t *Tree) PendingCheckIns() int64 {
	var n int64
	for _, m := range t.pending {
		for _, c := range m {
			n += c
		}
	}
	return n
}

// FlushEpochs closes every epoch that ends at or before now, folding its
// buffered check-ins into the tree: one top-down traversal of the compiled
// layout per epoch (patchEpoch) that adds the POI's aggregate to each leaf
// entry and the running maximum to each internal entry, touching only
// subtrees that contain a non-zero POI.
func (t *Tree) FlushEpochs(now int64) error {
	t.observe(now)
	var epochs []tia.Interval
	for ep := range t.pending {
		if ep.End <= now {
			epochs = append(epochs, ep)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i].Start < epochs[j].Start })
	for _, ep := range epochs {
		if err := t.flushEpoch(ep, t.pending[ep]); err != nil {
			return err
		}
		delete(t.pending, ep)
	}
	if len(epochs) > 0 {
		t.retryCols()
	}
	return nil
}

// retryCols compiles the columns of a layout published without them — the
// tree held too few records, or a flush turned them off — once a flush
// has changed what they would hold: what a fresh compile would decide.
func (t *Tree) retryCols() {
	if l := t.flat.Load(); l != nil && l.cols == nil {
		if nl := t.newLayout(l.ft); nl.cols != nil {
			t.flat.Store(nl)
		}
	}
}

// FlushAll closes every buffered epoch regardless of the clock; callers use
// it when loading historical data.
func (t *Tree) FlushAll() error {
	maxEnd := t.clock
	for ep := range t.pending {
		if ep.End > maxEnd {
			maxEnd = ep.End
		}
	}
	return t.FlushEpochs(maxEnd)
}

func (t *Tree) flushEpoch(iv tia.Interval, counts map[int64]int64) error {
	if len(counts) == 0 {
		return nil
	}
	t.invalidateCache()
	max, err := t.patchEpoch(t.compiled(), iv, counts)
	if err != nil {
		return err
	}
	if max > 0 {
		if err := t.raiseGlobal(tia.Record{Ts: iv.Start, Te: iv.End, Agg: max}); err != nil {
			return err
		}
	}
	// Track lifetime totals and the running λ̂ maximum; z-coordinates of
	// existing entries are not relocated (Section 8.2 discusses rebuilds).
	// Check-ins buffered for a POI deleted before the epoch closed are
	// dropped.
	for id, c := range counts {
		st, ok := t.pois[id]
		if !ok {
			continue
		}
		st.total += c
		if l := t.lambda(st.total); l > t.lambdaMax {
			t.lambdaMax = l
		}
	}
	return nil
}

// Aggregate returns the temporal aggregate of one POI over iv, read from
// what a query probes — the columns, where they apply, else the POI's TIA —
// under the tree's semantics.
func (t *Tree) Aggregate(id int64, iv tia.Interval) (int64, error) {
	st, ok := t.pois[id]
	if !ok {
		return 0, fmt.Errorf("core: unknown POI %d", id)
	}
	tia.AddProbes(st.data.Kind(), 1)
	if c := t.liveCols(); c != nil {
		return c.sum(st.eid, iv, t.opts.Semantics, t.opts.Epochs), nil
	}
	return st.data.Aggregate(iv, t.opts.Semantics, t.opts.AggFunc)
}

// AggregateMirror is Aggregate without a page access, whatever the
// backend: from the columns, where they apply, else folded from the
// records the POI's TIA keeps in memory. Baselines and tests use it.
func (t *Tree) AggregateMirror(id int64, iv tia.Interval) (int64, error) {
	st, ok := t.pois[id]
	if !ok {
		return 0, fmt.Errorf("core: unknown POI %d", id)
	}
	if c := t.liveCols(); c != nil {
		tia.AddProbes(tia.KindMem, 1)
		return c.sum(st.eid, iv, t.opts.Semantics, t.opts.Epochs), nil
	}
	return tia.AggregateRecords(st.data.Records(), iv, t.opts.Semantics, t.opts.AggFunc), nil
}

// History returns a copy of the POI's per-epoch aggregate records.
func (t *Tree) History(id int64) ([]tia.Record, error) {
	recs, err := t.records(id)
	if err != nil {
		return nil, err
	}
	return append([]tia.Record(nil), recs...), nil
}

// records returns the POI's records: derived from the columns where they
// hold them (a fresh slice), else its TIA's own (not to be modified).
func (t *Tree) records(id int64) ([]tia.Record, error) {
	st, ok := t.pois[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown POI %d", id)
	}
	if c := t.liveCols(); c != nil {
		return c.derive(nil, st.eid), nil
	}
	return st.data.Records(), nil
}
