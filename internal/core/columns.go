package core

import (
	"math"
	"slices"

	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// columns hold the per-epoch aggregates of every entry of a flat layout as
// prefix sums over the tree's epoch grid, stored epoch-major: cell eid of
// column k is entry eid's aggregate summed over epochs 0 … k−1, so its
// aggregate over the epochs [e0, e1) is col(e1)[eid] − col(e0)[eid]. A
// probe is two loads where a fold binary-searches the entry's records.
// Columns 0 … E are int32 cells in one slab, E the epochs up to the last one
// holding a record, each n cells long (n the flat entries) and addressed by
// entry id like the layout's Rects.
//
// Where they apply (newLayout) the columns replace the records: the
// entries' TIAs are kept as empty handles, a record is
// col(k)[eid] − col(k−1)[eid] wherever that is non-zero (derive), and a
// flush patches the columns in place (patchEpoch). A structural mutation
// hands the records back before it drops the layout (dissolve).
type columns struct {
	cells []int32
	n     int
	// spans[k] is the epoch column k adds (epoch k−1), zero for a column
	// whose epoch holds no record — no entry's difference is non-zero
	// there. spans[0] is unused.
	spans []tia.Interval
	// records counts the non-zero differences: the records the columns
	// encode, which bound the slab's size (fits).
	records int64
}

// recordBytes is what one tia.Record takes in memory.
const recordBytes = 24

// epochs returns E.
func (c *columns) epochs() int { return len(c.spans) - 1 }

// col returns column k.
func (c *columns) col(k int) []int32 { return c.cells[k*c.n : (k+1)*c.n : (k+1)*c.n] }

// at returns entry eid's aggregate in the epoch column k adds; 0 past E.
func (c *columns) at(eid int32, k int64) int64 {
	if k > int64(c.epochs()) {
		return 0
	}
	i := int(k)*c.n + int(eid)
	return int64(c.cells[i]) - int64(c.cells[i-c.n])
}

// fits reports whether columns 0 … epochs over n entries take no more
// memory than the records they encode, as for a grid whose few records lie
// epochs apart they would not. A negative count is a grid whose Count
// wrapped past math.MaxInt64. It is decided before any column is allocated.
func fits(epochs, records int64, n int) bool {
	return epochs >= 0 && epochs+1 <= records*recordBytes/4/int64(n)
}

// int32Total reports whether the global TIA's records g sum to at most
// math.MaxInt32 (plus extra): the total bounds every cell, since no entry's
// per-epoch value exceeds the global maximum.
func int32Total(g []tia.Record, extra int64) bool {
	total := extra
	for _, r := range g {
		if r.Agg > math.MaxInt32-total {
			return false
		}
		total += r.Agg
	}
	return total <= math.MaxInt32
}

// colsApply reports whether the tree's aggregate and factory admit columns.
func (t *Tree) colsApply() bool {
	return t.opts.AggFunc == tia.FuncSum && t.global.Kind() == tia.KindMem
}

// buildCols compiles the columns of ft's entries on grid ep, g the global
// TIA's records, or returns nil where:
//   - the global total exceeds int32 (int32Total);
//   - the slab would be bigger than the records it encodes (fits);
//   - an entry holds an epoch the global TIA does not dominate (an image
//     that breaks the invariant).
//
// With derive, maxChildren sets the internal entries' cells, and the leaves'
// records times the levels bound theirs until it has.
func buildCols(ep Epochs, g []tia.Record, ft *rstar.FlatTree, derive bool) *columns {
	if len(ft.Data) == 0 || !int32Total(g, 0) {
		return nil
	}
	c := &columns{n: len(ft.Data)}
	for _, d := range ft.Data {
		c.records += int64(len(tiaOf(d).Records()))
	}
	var epochs int64
	if len(g) > 0 {
		epochs = ep.Count(g[len(g)-1].Ts)
	}
	bound := c.records
	if derive {
		bound *= int64(ft.Height)
	}
	if !fits(epochs, bound, c.n) {
		return nil
	}
	// Every entry's epochs are among the global's, each at most its value:
	// an entry's record lands in its global record's column, found by
	// merging, and no prefix sum passes the global total.
	key := make([]int, len(g))
	c.spans = make([]tia.Interval, epochs+1)
	for j, r := range g {
		key[j] = int(ep.Count(r.Ts))
		c.spans[key[j]] = tia.Interval{Start: r.Ts, End: r.Te}
	}
	c.cells = make([]int32, (epochs+1)*int64(c.n))
	for eid, d := range ft.Data {
		j := 0
		for _, r := range tiaOf(d).Records() {
			for j < len(g) && g[j].Ts < r.Ts {
				j++
			}
			if j == len(g) || g[j].Ts != r.Ts || r.Agg > g[j].Agg {
				return nil
			}
			c.cells[key[j]*c.n+eid] = int32(r.Agg)
		}
	}
	if derive {
		if c.records += maxChildren(ft, c, 0); !fits(epochs, c.records, c.n) {
			return nil
		}
	}
	for k := 1; k <= int(epochs); k++ {
		prev, cur := c.col(k-1), c.col(k)
		for i := range cur {
			cur[i] += prev[i]
		}
	}
	return c
}

// maxChildren sets each internal entry's per-epoch values under node id to
// the maxima of its child node's entries', children first: as c's cells
// before the prefix sums, or, c nil, as records. It returns the cells set.
func maxChildren(ft *rstar.FlatTree, c *columns, id int32) (records int64) {
	n := ft.Nodes[id]
	for eid := n.Start; eid < n.Start+n.Count; eid++ {
		child := ft.Children[eid]
		if child < 0 {
			continue
		}
		records += maxChildren(ft, c, child)
		cn := ft.Nodes[child]
		if c == nil {
			var acc tia.Index
			for ce := cn.Start; ce < cn.Start+cn.Count; ce++ {
				acc.MaxMerge(tiaOf(ft.Data[ce]).Records()) //nolint:errcheck // in memory: cannot fail
			}
			tiaOf(ft.Data[eid]).SetRecords(slices.Clone(acc.Records()))
			continue
		}
		for k := 1; k <= c.epochs(); k++ {
			col := c.col(k)
			for _, v := range col[cn.Start : cn.Start+cn.Count] {
				col[eid] = max(col[eid], v)
			}
			if col[eid] != 0 {
				records++
			}
		}
	}
	return records
}

// derive appends to dst the records entry eid's columns encode, in
// ascending Ts order.
func (c *columns) derive(dst []tia.Record, eid int32) []tia.Record {
	for k := 1; k <= c.epochs(); k++ {
		if v := c.at(eid, int64(k)); v != 0 {
			dst = append(dst, tia.Record{Ts: c.spans[k].Start, Te: c.spans[k].End, Agg: v})
		}
	}
	return dst
}

// blockEntries is how many entries eachBlock derives per column pass: a
// run of cells a few cache lines long.
const blockEntries = 32

// eachBlock derives the records of every entry, blockEntries entries at a
// time in entry order, and hands fn each block's first entry and records,
// which the next block overwrites. It reads each column a run of cells at
// a time, where derive reads one cell per column, n cells apart.
func (c *columns) eachBlock(fn func(lo int, recs [][]tia.Record)) {
	buf := make([][]tia.Record, blockEntries)
	for lo := 0; lo < c.n; lo += blockEntries {
		hi := min(lo+blockEntries, c.n)
		recs := buf[:hi-lo]
		for i := range recs {
			recs[i] = recs[i][:0]
		}
		for k := 1; k <= c.epochs(); k++ {
			prev, cur := c.col(k - 1)[lo:hi], c.col(k)[lo:hi]
			for i := range recs {
				if v := int64(cur[i]) - int64(prev[i]); v != 0 {
					recs[i] = append(recs[i], tia.Record{Ts: c.spans[k].Start, Te: c.spans[k].End, Agg: v})
				}
			}
		}
		fn(lo, recs)
	}
}

// newLayout returns the layout that publishes ft and, where they apply,
// its columns. They do not where the tree's aggregate is not FuncSum (a
// maximum has no prefix form), or its TIAs are paged (the paper's
// experiments count their page reads), or buildCols refuses; probes then
// fold the records. With columns, the entries' TIAs release their records
// and every POI notes its leaf entry's id, the column cell its records live
// in. Where the tree derives its internal TIAs, each gets a fresh one, so
// no records a thaw handed back are read, and maxChildren sets its values.
func (t *Tree) newLayout(ft *rstar.FlatTree) *layout {
	derive := t.derives()
	for eid, child := range ft.Children {
		if derive && child >= 0 {
			ft.Data[eid] = new(tia.Index)
		}
	}
	l := &layout{ft: ft}
	if t.colsApply() {
		l.cols = buildCols(t.opts.Epochs, t.global.Records(), ft, derive)
	}
	if l.cols == nil && derive {
		maxChildren(ft, nil, 0)
	}
	if l.cols != nil {
		for eid, d := range ft.Data {
			tiaOf(d).SetRecords(nil)
			if ft.Children[eid] < 0 {
				t.pois[ft.Items[eid]].eid = int32(eid)
			}
		}
	}
	return l
}

// dissolve hands every entry of l its records back from l's columns; the
// caller then publishes a layout without them, or none. Under the tree's
// write lock.
func (t *Tree) dissolve(l *layout) {
	l.cols.eachBlock(func(lo int, recs [][]tia.Record) {
		for i, r := range recs {
			var own []tia.Record
			if len(r) > 0 {
				own = slices.Clone(r)
			}
			tiaOf(l.ft.Data[lo+i]).SetRecords(own)
		}
	})
}

// liveCols returns the columns that hold the entries' records, or nil when
// the records are in the TIAs. Where columns may apply it takes the
// compiled layout as a search would — compiling it if a structural
// mutation dropped it — so a reader never races the compile that releases
// the records it reads.
func (t *Tree) liveCols() *columns {
	if !t.colsApply() {
		return nil
	}
	return t.compiled().cols
}

// patch is one entry's aggregate in a flushed epoch, before and after.
type patch struct {
	eid      int32
	old, new int64
}

// patchEpoch folds the epoch's counts into layout l, walking it (walk), and
// returns the largest aggregate it leaves: 0 when no indexed POI checked
// in, and then nothing was written. If the columns still apply once the
// flush lands — the global total stays within int32 and the slab within
// the records (fits), both decided before anything is allocated — it
// appends the columns up to the epoch's (copies of the last) and adds each
// change to the entry's cells from the epoch's column on: O(changes ×
// columns after it), one column for the newest epoch. Else, and on a
// layout without columns, the changes become Puts (dropCols first).
func (t *Tree) patchEpoch(l *layout, iv tia.Interval, counts map[int64]int64) (int64, error) {
	k := t.opts.Epochs.Count(iv.Start) // the epoch's column
	if l.cols != nil && k <= 0 {
		// A count that wrapped past math.MaxInt64: no column holds it.
		l = t.dropCols(l)
	}
	var patches []patch
	top := l.walk(0, iv.Start, k, counts, &patches)
	if top == 0 {
		return 0, nil
	}
	if c := l.cols; c != nil {
		records := c.records
		for _, p := range patches {
			if p.old == 0 {
				records++
			}
		}
		g := t.global.Records()
		cur, _ := currentAgg(g, iv.Start)
		raise := max(0, top-cur)
		epochs := max(int64(c.epochs()), k)
		if int32Total(g, raise) && fits(epochs, records, c.n) {
			if E := int64(c.epochs()); epochs > E {
				c.cells = slices.Grow(c.cells, int(epochs-E)*c.n)
				last := c.col(int(E))
				for e := E + 1; e <= epochs; e++ {
					c.cells = append(c.cells, last...)
					c.spans = append(c.spans, tia.Interval{})
				}
			}
			c.spans[k] = iv
			c.records = records
			for _, p := range patches {
				d := int32(p.new - p.old)
				for i := int(k)*c.n + int(p.eid); i < len(c.cells); i += c.n {
					c.cells[i] += d
				}
			}
			return top, nil
		}
		l = t.dropCols(l)
	}
	for _, p := range patches {
		if err := tiaOf(l.ft.Data[p.eid]).Put(tia.Record{Ts: iv.Start, Te: iv.End, Agg: p.new}); err != nil {
			return 0, err
		}
	}
	return top, nil
}

// dropCols turns l's columns off: the entries get their records back, and
// the tree publishes, and returns, l's flat tree alone, whose probes fold
// them.
func (t *Tree) dropCols(l *layout) *layout {
	t.dissolve(l)
	t.flat.Store(&layout{ft: l.ft})
	return t.flat.Load()
}

// walk collects into patches the changes a flush of the epoch starting at
// ts, column k, makes to the entries of node id and below, reading each
// entry's current aggregate from the columns, else from its TIA's records,
// and returns the largest aggregate it leaves among them (0 when no
// indexed POI checked in). An epoch may already hold data — a POI inserted
// with history can take further check-ins in it — so a leaf entry adds its
// POI's count and an internal entry takes the maximum of its own and its
// child's; an entry whose value does not change gets no patch.
func (l *layout) walk(id int32, ts, k int64, counts map[int64]int64, patches *[]patch) int64 {
	ft := l.ft
	n := ft.Nodes[id]
	var top int64
	for eid := n.Start; eid < n.Start+n.Count; eid++ {
		child := ft.Children[eid]
		var eff, cur int64
		if child < 0 {
			eff = counts[ft.Items[eid]]
		} else {
			eff = l.walk(child, ts, k, counts, patches)
		}
		if eff == 0 {
			continue
		}
		if l.cols != nil {
			cur = l.cols.at(eid, k)
		} else {
			cur, _ = currentAgg(tiaOf(ft.Data[eid]).Records(), ts)
		}
		if child < 0 {
			eff += cur
		} else {
			eff = max(eff, cur)
		}
		if eff != cur {
			*patches = append(*patches, patch{eid: eid, old: cur, new: eff})
		}
		top = max(top, eff)
	}
	return top
}

// sum returns entry eid's aggregate over iv under sem: a probe.
func (c *columns) sum(eid int32, iv tia.Interval, sem tia.Semantics, ep Epochs) int64 {
	e0, e1 := c.span(iv, sem, ep)
	return int64(c.col(e1)[eid]) - int64(c.col(e0)[eid])
}

// span maps a query interval to the column range [e0, e1) whose epochs
// match it under sem: the epochs inside iv (Contained) or overlapping it
// (Intersecting). iv is first clamped to [origin, end], end the end of
// epoch E−1, where every record lies; that changes no match, keeps
// e0 ≤ e1 ≤ E, and keeps Count's argument on the grid.
func (c *columns) span(iv tia.Interval, sem tia.Semantics, ep Epochs) (e0, e1 int) {
	origin := ep.Origin()
	end := origin
	if E := c.epochs(); E > 0 {
		end = c.spans[E].End
	}
	s, e := max(iv.Start, origin), min(iv.End, end)
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
