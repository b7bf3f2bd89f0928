package core

import (
	"math"

	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// prefixRows holds, for every entry of a flat layout, the prefix sums of its
// TIA's per-epoch aggregates over the tree's epoch grid: cell j of entry
// eid's row is the sum of its aggregates over epochs 0 … j−1, so its
// aggregate over the epochs [e0, e1) is row[e1] − row[e0]. A probe is two
// loads where a fold binary-searches the entry's records. The rows are
// int32 cells in one slab with a stride of E+1, E the epochs up to the last
// one holding a record, addressed by entry id like the layout's Rects.
type prefixRows struct {
	cells  []int32
	stride int
	// end is the end of epoch E−1 (the grid's origin when E = 0): no
	// record reaches past it.
	end int64
}

// recordBytes is what one tia.Record takes in memory.
const recordBytes = 24

// compileRows compiles the prefix rows of ft's entries, or returns nil
// where rows do not apply and probes fold the records instead:
//   - the aggregate is not FuncSum (a maximum has no prefix form);
//   - the TIAs are paged (the paper's experiments count their page reads);
//   - the global TIA's total exceeds int32 — it bounds every row, since no
//     entry's per-epoch value exceeds the global maximum;
//   - the slab would be bigger than the records it mirrors, as for a grid
//     whose few records lie epochs apart.
//
// It only reads the TIAs, like rstar.Tree.Freeze reads the pointer tree.
func (t *Tree) compileRows(ft *rstar.FlatTree) *prefixRows {
	if t.opts.AggFunc != tia.FuncSum || t.global.Kind() != tia.KindMem || len(ft.Data) == 0 {
		return nil
	}
	ep := t.opts.Epochs
	g := t.global.Records()
	var total int64
	for _, r := range g {
		if r.Agg > math.MaxInt32-total {
			return nil
		}
		total += r.Agg
	}
	var epochs int64
	end := ep.Origin()
	if len(g) > 0 {
		last := g[len(g)-1]
		epochs, end = ep.Count(last.Ts), last.Te
	}
	var records int64
	for _, d := range ft.Data {
		records += int64(len(tiaOf(d).Records()))
	}
	// A negative count is a grid whose Count wrapped past math.MaxInt64.
	if epochs < 0 || epochs+1 > records*recordBytes/4/int64(len(ft.Data)) {
		return nil
	}
	// Every entry's epochs are among the global's, each at most its
	// value: a row's cell for an epoch is its global record's index + 1,
	// found by merging, and no row sums past the global total.
	cell := make([]int, len(g))
	for j, r := range g {
		cell[j] = int(ep.Count(r.Ts))
	}
	stride := int(epochs + 1)
	cells := make([]int32, len(ft.Data)*stride)
	for eid, d := range ft.Data {
		row := cells[eid*stride : (eid+1)*stride]
		j := 0
		for _, r := range tiaOf(d).Records() {
			for j < len(g) && g[j].Ts < r.Ts {
				j++
			}
			if j == len(g) || g[j].Ts != r.Ts || r.Agg > g[j].Agg {
				return nil // an image whose global TIA does not dominate
			}
			row[cell[j]] = int32(r.Agg)
		}
		for j := 1; j < stride; j++ {
			row[j] += row[j-1]
		}
	}
	return &prefixRows{cells: cells, stride: stride, end: end}
}

// span maps a query interval to the epoch range [e0, e1) whose records
// match it under sem: the epochs inside iv (Contained) or overlapping it
// (Intersecting). iv is first clamped to [origin, end], where every record
// lies; that changes no match, keeps e0 ≤ e1 ≤ E, and keeps Count's
// argument on the grid.
func (r *prefixRows) span(iv tia.Interval, sem tia.Semantics, ep Epochs) (e0, e1 int) {
	origin := ep.Origin()
	s, e := max(iv.Start, origin), min(iv.End, r.end)
	if e <= s {
		return 0, 0
	}
	var a, b int64
	if sem == tia.Contained {
		// Epochs starting at or after s, up to those ending by e.
		if s > origin {
			a = ep.Count(s - 1)
		}
		b = ep.Count(e) - 1
	} else {
		// Epochs ending after s, up to those starting before e.
		a = ep.Count(s) - 1
		b = ep.Count(e - 1)
	}
	return int(a), int(max(a, b))
}
