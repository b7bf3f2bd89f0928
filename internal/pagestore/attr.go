// Attributed page-traffic accounting. The paper's evaluation (§8) reports
// page accesses broken down by structure — R-tree nodes vs. TIA pages — so
// the sink path optionally carries an IOTag (component + tree level) with
// every event. Buffers emit tags via GetTag/PutTag; sinks that implement
// TagSink receive them, everything else keeps seeing the untagged Sink
// calls. AttrCounterSink accumulates both the flat Stats totals and the
// per-tag IOBreakdown, with the invariant that the breakdown always sums
// back to the flat totals (untagged traffic lands in CompUnknown).
package pagestore

import (
	"bytes"
	"fmt"
	"sync/atomic"
)

// Component identifies which index structure caused a page access.
type Component uint8

const (
	// CompUnknown collects traffic that reached the buffer without an
	// attribution tag (e.g. Flush write-backs, legacy Get/Put callers).
	CompUnknown Component = iota
	// CompRTreeInternal is an internal (non-leaf) TAR-tree node access.
	CompRTreeInternal
	// CompRTreeLeaf is a TAR-tree leaf node access.
	CompRTreeLeaf
	// CompTIABTree is a page of a B+-tree-backed TIA.
	CompTIABTree
	// CompTIAMVBT is a page of an MVBT-backed TIA.
	CompTIAMVBT
	// CompAggCache is a shared aggregate-cache probe (internal/aggcache),
	// not a page access: a Hit is a TIA probe or whole query answered from
	// the cache (so the traffic the backend would have seen is absent from
	// the TIA cells), a Miss is a probe that fell through to the backend.
	// Queries record these cells so per-query I/O stays auditable with
	// caching on — TIA cells still reconcile exactly with backend traffic,
	// and the aggcache cells explain the reads that never happened. Level 0
	// holds aggregate probes, level 1 whole-result lookups.
	CompAggCache
	// CompShard is a scatter-gather round-trip to one shard process, not a
	// page access: the coordinator records one read per shard round at
	// level = shard index (clamped), so a distributed query's io breakdown
	// attributes its fan-out the same way local queries attribute pages.
	CompShard
	// NumComponents bounds the Component enum (array dimension).
	NumComponents
)

var componentNames = [NumComponents]string{
	"unknown", "rtree-internal", "rtree-leaf", "tia-btree", "tia-mvbt", "agg-cache", "shard",
}

// String returns the stable label used in metrics and JSON output.
func (c Component) String() string {
	if c >= NumComponents {
		return "unknown"
	}
	return componentNames[c]
}

// MaxIOLevels bounds the per-component level dimension of an IOBreakdown.
// Level 0 is the leaf level and levels grow toward the root; trees deeper
// than this clamp their upper levels into the last slot (the data sets in
// the paper's setup never exceed height 8).
const MaxIOLevels = 8

// IOTag attributes one page access to a component and tree level.
// The zero IOTag means "unattributed" and maps to CompUnknown.
type IOTag struct {
	Comp  Component
	Level uint8
	// Acct, when non-nil, is the query-local accounting context this
	// access is charged to instead of the buffer's sinks (see IOAcct).
	// Buffers carry it through evictions and write-backs, so side-effect
	// traffic lands in the acct of the access that forced it — the same
	// attribution rule TagSink documents.
	Acct *IOAcct
}

// WithAcct returns a copy of t that charges its traffic to a, whose owner
// folds it into the sinks later. A nil a leaves the traffic unowned: the
// buffer emits it to its sinks on the spot.
func (t IOTag) WithAcct(a *IOAcct) IOTag {
	t.Acct = a
	return t
}

// IOAcct is a query-local I/O accounting context. A query (or any other
// logical unit of work) owns one IOAcct, stamps it into the IOTags of its
// page accesses (IOTag.WithAcct), and afterwards reads its own traffic off
// Stats and IO — no diffing of global shared counters, so per-query numbers
// stay exact while any number of queries run concurrently.
//
// Traffic that carries an acct reaches nothing shared: the buffer counts it
// in its own stats and in the acct, and skips its sinks. The owner folds
// what the acct gathered into the shared sinks in bulk (BulkSink.AddPages,
// AttrCounterSink.AddAcct, and the tia factories' FoldAcct on top of them),
// so a page read costs the cores no shared cache line and the sinks still
// reach the same totals once the owner has folded.
//
// An IOAcct must not be shared by concurrently running units of work: its
// fields are plain values and the owning query's goroutine is expected to
// be the only one whose accesses carry it. (Buffers record into it without
// holding any lock; that is safe precisely because distinct concurrent
// queries carry distinct accts.)
type IOAcct struct {
	// Stats totals the traffic of the accesses carrying this acct,
	// including evictions and write-backs those accesses forced.
	Stats Stats
	// DirtyEvictions is the part of Stats.Evictions that wrote a dirty
	// frame back (sinks publish clean and dirty evictions separately).
	DirtyEvictions int64
	// Probes counts the TIA aggregate probes charged to this acct; the tia
	// package bumps it instead of its process-wide probe counters.
	Probes int64
	// IO, when non-nil, additionally receives the attributed
	// (component, level) breakdown of the same traffic.
	IO *IOBreakdown
	// rows has bit c set when the acct charged traffic to IO's row of
	// component c since it was last drained, so that folding — which an
	// owner does many times per query — walks those rows (one, for a
	// query) instead of the whole breakdown.
	rows uint8
}

var _ [8 - NumComponents]struct{} // rows has a bit per component

// cell returns IO's cell for t, marking its row as touched. Callers have
// checked that IO is set.
func (a *IOAcct) cell(t IOTag) *IOCell {
	c, l := t.clamp()
	a.rows |= 1 << c
	return &a.IO[c][l]
}

func (a *IOAcct) read(t IOTag, hit bool) {
	a.Stats.LogicalReads++
	if !hit {
		a.Stats.PhysicalReads++
	}
	if a.IO == nil {
		return
	}
	if hit {
		a.cell(t).Hits++
	} else {
		a.cell(t).Misses++
	}
}

func (a *IOAcct) write(t IOTag, physical bool) {
	if physical {
		a.Stats.PhysicalWrites++
	} else {
		a.Stats.LogicalWrites++
	}
	if a.IO == nil {
		return
	}
	if physical {
		a.cell(t).PhysicalWrites++
	} else {
		a.cell(t).LogicalWrites++
	}
}

func (a *IOAcct) evicted(t IOTag, dirty bool) {
	a.Stats.Evictions++
	if dirty { // the write-back itself was already counted via write()
		a.DirtyEvictions++
	}
	if a.IO != nil {
		a.cell(t).Evictions++
	}
}

// touched calls fn for every non-zero cell of the rows the acct charged
// traffic to since it was last drained.
func (a *IOAcct) touched(fn func(c Component, level int, cell *IOCell)) {
	for c := Component(0); c < NumComponents; c++ {
		if a.rows&(1<<c) == 0 {
			continue
		}
		for l := range a.IO[c] {
			if cell := &a.IO[c][l]; !cell.IsZero() {
				fn(c, l, cell)
			}
		}
	}
}

// DrainTo hands what the acct gathered over to its owner's books: the
// breakdown is added to dst, and the acct — totals, probes, breakdown — is
// left empty, ready to be charged again. The owner has folded the acct into
// the shared sinks first (tia.Factory.FoldAcct).
func (a *IOAcct) DrainTo(dst *IOBreakdown) {
	if a.IO != nil {
		a.touched(func(c Component, level int, cell *IOCell) {
			dst[c][level] = dst[c][level].add(*cell)
			*cell = IOCell{}
		})
	}
	*a = IOAcct{IO: a.IO}
}

// NewIOTag builds a tag, clamping out-of-range levels into the breakdown's
// fixed dimensions. Level 0 is the leaf level.
func NewIOTag(c Component, level int) IOTag {
	if c >= NumComponents {
		c = CompUnknown
	}
	switch {
	case level < 0:
		level = 0
	case level >= MaxIOLevels:
		level = MaxIOLevels - 1
	}
	return IOTag{Comp: c, Level: uint8(level)}
}

// clamp maps any tag (including ones constructed directly with
// out-of-range fields) onto valid array indices.
func (t IOTag) clamp() (int, int) {
	c, l := int(t.Comp), int(t.Level)
	if c >= int(NumComponents) {
		c = int(CompUnknown)
	}
	if l >= MaxIOLevels {
		l = MaxIOLevels - 1
	}
	return c, l
}

// IOCell is the traffic of one (component, level) pair. Hits+Misses is the
// logical read count; Misses is the physical read count.
type IOCell struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	LogicalWrites  int64 `json:"logical_writes,omitempty"`
	PhysicalWrites int64 `json:"physical_writes,omitempty"`
	Evictions      int64 `json:"evictions,omitempty"`
}

// IsZero reports whether the cell saw no traffic at all.
func (c IOCell) IsZero() bool { return c == IOCell{} }

func (c IOCell) add(o IOCell) IOCell {
	return IOCell{
		Hits:           c.Hits + o.Hits,
		Misses:         c.Misses + o.Misses,
		LogicalWrites:  c.LogicalWrites + o.LogicalWrites,
		PhysicalWrites: c.PhysicalWrites + o.PhysicalWrites,
		Evictions:      c.Evictions + o.Evictions,
	}
}

func (c IOCell) sub(o IOCell) IOCell {
	return IOCell{
		Hits:           c.Hits - o.Hits,
		Misses:         c.Misses - o.Misses,
		LogicalWrites:  c.LogicalWrites - o.LogicalWrites,
		PhysicalWrites: c.PhysicalWrites - o.PhysicalWrites,
		Evictions:      c.Evictions - o.Evictions,
	}
}

// IOBreakdown is page traffic attributed by (component, level). It is a
// fixed-size value type so QueryStats can carry one per query without
// allocation, and so two breakdowns diff with plain arithmetic.
type IOBreakdown [NumComponents][MaxIOLevels]IOCell

// AddRead records one logical read for tag (miss = physical).
func (b *IOBreakdown) AddRead(t IOTag, hit bool) {
	c, l := t.clamp()
	if hit {
		b[c][l].Hits++
	} else {
		b[c][l].Misses++
	}
}

// AddWrite records one write for tag.
func (b *IOBreakdown) AddWrite(t IOTag, physical bool) {
	c, l := t.clamp()
	if physical {
		b[c][l].PhysicalWrites++
	} else {
		b[c][l].LogicalWrites++
	}
}

// AddEviction records one frame eviction for tag.
func (b *IOBreakdown) AddEviction(t IOTag) {
	c, l := t.clamp()
	b[c][l].Evictions++
}

// Add accumulates o into b cell-wise.
func (b *IOBreakdown) Add(o *IOBreakdown) {
	for c := range b {
		for l := range b[c] {
			b[c][l] = b[c][l].add(o[c][l])
		}
	}
}

// Sub returns b − o cell-wise.
func (b IOBreakdown) Sub(o IOBreakdown) IOBreakdown {
	for c := range b {
		for l := range b[c] {
			b[c][l] = b[c][l].sub(o[c][l])
		}
	}
	return b
}

// Total folds the breakdown back into flat Stats. For an AttrCounterSink
// this equals Snapshot() exactly — the conservation invariant the
// accounting tests pin down.
func (b *IOBreakdown) Total() Stats {
	var s Stats
	for c := range b {
		for l := range b[c] {
			cell := b[c][l]
			s.LogicalReads += cell.Hits + cell.Misses
			s.PhysicalReads += cell.Misses
			s.LogicalWrites += cell.LogicalWrites
			s.PhysicalWrites += cell.PhysicalWrites
			s.Evictions += cell.Evictions
		}
	}
	return s
}

// Component folds all levels of one component into a single cell.
func (b *IOBreakdown) Component(c Component) IOCell {
	var sum IOCell
	if c >= NumComponents {
		return sum
	}
	for l := range b[c] {
		sum = sum.add(b[c][l])
	}
	return sum
}

// IsZero reports whether no cell saw any traffic.
func (b *IOBreakdown) IsZero() bool {
	for c := range b {
		for l := range b[c] {
			if !b[c][l].IsZero() {
				return false
			}
		}
	}
	return true
}

// Each calls fn for every non-zero cell, components in enum order, levels
// leaf first.
func (b *IOBreakdown) Each(fn func(c Component, level int, cell IOCell)) {
	for c := range b {
		for l := range b[c] {
			if !b[c][l].IsZero() {
				fn(Component(c), l, b[c][l])
			}
		}
	}
}

// MarshalJSON emits only the non-zero cells, as a flat array of
// {component, level, ...cell} objects — the dense 2-D array would be
// almost entirely zeros.
func (b IOBreakdown) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	first := true
	b.Each(func(c Component, level int, cell IOCell) {
		if !first {
			buf.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&buf, `{"component":%q,"level":%d,"hits":%d,"misses":%d`,
			c.String(), level, cell.Hits, cell.Misses)
		if cell.LogicalWrites != 0 {
			fmt.Fprintf(&buf, `,"logical_writes":%d`, cell.LogicalWrites)
		}
		if cell.PhysicalWrites != 0 {
			fmt.Fprintf(&buf, `,"physical_writes":%d`, cell.PhysicalWrites)
		}
		if cell.Evictions != 0 {
			fmt.Fprintf(&buf, `,"evictions":%d`, cell.Evictions)
		}
		buf.WriteByte('}')
	})
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// TagSink is the attributed extension of Sink. Buffers type-assert each
// attached sink once at attach time; sinks implementing TagSink receive
// the tagged calls instead of (not in addition to) the plain Sink calls.
type TagSink interface {
	Sink
	// PageReadTag is PageRead with the attribution tag of the access.
	PageReadTag(tag IOTag, hit bool)
	// PageWriteTag is PageWrite with the attribution tag of the access.
	PageWriteTag(tag IOTag, physical bool)
	// PageEvictedTag is PageEvicted with the tag of the access that
	// triggered the eviction (evicting a frame is a side effect of
	// loading another page; the write-back, if any, carries the same tag).
	PageEvictedTag(tag IOTag, dirty bool)
}

// BulkSink is the bulk extension of Sink: AddPages adds a batch of page
// traffic that an IOAcct owner counted privately, as if the events had been
// reported one by one. obs.PageSink satisfies it structurally, which is why
// the batch travels as plain integers.
type BulkSink interface {
	Sink
	AddPages(hits, misses, logicalWrites, physicalWrites, cleanEvictions, dirtyEvictions int64)
}

// FoldInto adds the acct's flat totals to s.
func (a *IOAcct) FoldInto(s BulkSink) {
	st := a.Stats
	s.AddPages(st.Hits(), st.Misses(), st.LogicalWrites, st.PhysicalWrites,
		st.Evictions-a.DirtyEvictions, a.DirtyEvictions)
}

// AddPages implements BulkSink.
func (s *CounterSink) AddPages(hits, misses, logicalWrites, physicalWrites, cleanEvictions, dirtyEvictions int64) {
	addNonZero(&s.logicalReads, hits+misses)
	addNonZero(&s.physicalReads, misses)
	addNonZero(&s.logicalWrites, logicalWrites)
	addNonZero(&s.physicalWrites, physicalWrites)
	addNonZero(&s.evictions, cleanEvictions+dirtyEvictions)
}

// addNonZero spares a bulk add the locked instruction for the counters a
// batch leaves alone (a read-only query's batch is hits and nothing else).
func addNonZero(c *atomic.Int64, d int64) {
	if d != 0 {
		c.Add(d)
	}
}

// atomicIOCell is the lock-free accumulator behind one breakdown cell.
type atomicIOCell struct {
	hits           atomic.Int64
	misses         atomic.Int64
	logicalWrites  atomic.Int64
	physicalWrites atomic.Int64
	evictions      atomic.Int64
}

func (c *atomicIOCell) load() IOCell {
	return IOCell{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		LogicalWrites:  c.logicalWrites.Load(),
		PhysicalWrites: c.physicalWrites.Load(),
		Evictions:      c.evictions.Load(),
	}
}

// AttrCounterSink is a CounterSink that additionally attributes traffic by
// (component, level). The flat totals stay O(5 atomics) to snapshot, while
// Breakdown() walks all cells and is meant to be read once per experiment.
//
// Like CounterSink it is cumulative and has no reset; readers that need
// windows diff breakdowns (see tia factory ResetStats).
type AttrCounterSink struct {
	flat  CounterSink
	cells [NumComponents][MaxIOLevels]atomicIOCell
}

// Snapshot returns the flat totals (identical to a plain CounterSink).
func (s *AttrCounterSink) Snapshot() Stats { return s.flat.Snapshot() }

// Breakdown returns the current attributed totals. Breakdown().Total() ==
// Snapshot() holds whenever no writer is mid-event.
func (s *AttrCounterSink) Breakdown() IOBreakdown {
	var b IOBreakdown
	for c := range s.cells {
		for l := range s.cells[c] {
			b[c][l] = s.cells[c][l].load()
		}
	}
	return b
}

// AddAcct adds the attributed traffic an IOAcct owner gathered privately
// (a.IO must be set) to the cells and the flat totals alike, so
// Breakdown().Total() == Snapshot() keeps holding.
func (s *AttrCounterSink) AddAcct(a *IOAcct) {
	a.touched(func(c Component, level int, cell *IOCell) {
		ac := &s.cells[c][level]
		addNonZero(&ac.hits, cell.Hits)
		addNonZero(&ac.misses, cell.Misses)
		addNonZero(&ac.logicalWrites, cell.LogicalWrites)
		addNonZero(&ac.physicalWrites, cell.PhysicalWrites)
		addNonZero(&ac.evictions, cell.Evictions)
	})
	a.FoldInto(&s.flat)
}

// PageRead implements Sink; untagged reads land in CompUnknown.
func (s *AttrCounterSink) PageRead(hit bool) { s.PageReadTag(IOTag{}, hit) }

// PageWrite implements Sink; untagged writes land in CompUnknown.
func (s *AttrCounterSink) PageWrite(physical bool) { s.PageWriteTag(IOTag{}, physical) }

// PageEvicted implements Sink; untagged evictions land in CompUnknown.
func (s *AttrCounterSink) PageEvicted(dirty bool) { s.PageEvictedTag(IOTag{}, dirty) }

// PageReadTag implements TagSink.
func (s *AttrCounterSink) PageReadTag(tag IOTag, hit bool) {
	s.flat.PageRead(hit)
	c, l := tag.clamp()
	if hit {
		s.cells[c][l].hits.Add(1)
	} else {
		s.cells[c][l].misses.Add(1)
	}
}

// PageWriteTag implements TagSink.
func (s *AttrCounterSink) PageWriteTag(tag IOTag, physical bool) {
	s.flat.PageWrite(physical)
	c, l := tag.clamp()
	if physical {
		s.cells[c][l].physicalWrites.Add(1)
	} else {
		s.cells[c][l].logicalWrites.Add(1)
	}
}

// PageEvictedTag implements TagSink.
func (s *AttrCounterSink) PageEvictedTag(tag IOTag, dirty bool) {
	s.flat.PageEvicted(dirty)
	c, l := tag.clamp()
	s.cells[c][l].evictions.Add(1)
}
