package core

import (
	"fmt"
	"sort"

	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// AddCheckIn records one check-in at POI id at time at. Check-ins are
// buffered per epoch; FlushEpochs folds every completed epoch into the
// TIAs in one batch, matching Section 4.2 ("when an epoch ends, we compute
// the aggregate of each POI by the check-ins, and then insert the non-zero
// aggregates in a batch fashion").
func (t *Tree) AddCheckIn(id int64, at int64) error {
	if _, ok := t.pois[id]; !ok {
		return fmt.Errorf("core: check-in for unknown POI %d", id)
	}
	if at < t.opts.Epochs.Origin() {
		return fmt.Errorf("core: check-in at %d precedes epoch origin %d", at, t.opts.Epochs.Origin())
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
// buffered check-ins into the tree: one top-down traversal per epoch that
// appends the POI's aggregate to each leaf TIA and the running maximum to
// each internal TIA, touching only subtrees that contain a non-zero POI.
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
	return nil
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
	t.dropRows()
	max, err := t.applyEpoch(t.rt.Root(), iv, counts)
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

// applyEpoch recursively folds the epoch's aggregates into the subtree and
// returns the largest updated aggregate inside it (0 when no indexed POI
// checked in, in which case nothing was written). An epoch may already
// hold data — a POI inserted with history can receive further check-ins in
// the same epoch — so leaf records accumulate and internal records take the
// maximum with the existing value.
func (t *Tree) applyEpoch(n *rstar.Node, iv tia.Interval, counts map[int64]int64) (int64, error) {
	var max int64
	for i := range n.Entries {
		e := &n.Entries[i]
		d := tiaOf(e.Data)
		var eff int64
		if e.Child == nil {
			delta := counts[int64(e.Item)]
			if delta == 0 {
				continue
			}
			cur, _ := currentAgg(d, iv.Start)
			eff = cur + delta
		} else {
			childEff, err := t.applyEpoch(e.Child, iv, counts)
			if err != nil {
				return 0, err
			}
			if childEff == 0 {
				continue
			}
			eff = childEff
			if cur, _ := currentAgg(d, iv.Start); cur > eff {
				eff = cur
			}
		}
		if err := d.Put(tia.Record{Ts: iv.Start, Te: iv.End, Agg: eff}); err != nil {
			return 0, err
		}
		if eff > max {
			max = eff
		}
	}
	return max, nil
}

// Aggregate returns the temporal aggregate of one POI over iv, read from
// the TIA a query probes, under the tree's semantics.
func (t *Tree) Aggregate(id int64, iv tia.Interval) (int64, error) {
	st, ok := t.pois[id]
	if !ok {
		return 0, fmt.Errorf("core: unknown POI %d", id)
	}
	tia.AddProbes(st.data.Kind(), 1)
	return st.data.Aggregate(iv, t.opts.Semantics, t.opts.AggFunc)
}

// AggregateMirror is Aggregate from the records the TIA keeps in memory (no
// page access, whatever the backend); baselines and tests use it.
func (t *Tree) AggregateMirror(id int64, iv tia.Interval) (int64, error) {
	st, ok := t.pois[id]
	if !ok {
		return 0, fmt.Errorf("core: unknown POI %d", id)
	}
	return t.aggregateRecords(st.data, iv), nil
}

// History returns a copy of the POI's per-epoch aggregate records.
func (t *Tree) History(id int64) ([]tia.Record, error) {
	st, ok := t.pois[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown POI %d", id)
	}
	return append([]tia.Record(nil), st.data.Records()...), nil
}
