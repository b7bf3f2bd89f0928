// Attributed page-traffic accounting. The paper's evaluation (§8) reports
// page accesses broken down by structure — R-tree nodes vs. TIA pages — so
// every access through GetTag/PutTag carries an IOTag (component + tree
// level; untagged traffic lands in CompUnknown). An event is booked under
// its tag in one place beside the buffer's own Stats: the IOAcct of the
// query that caused it, or else the Ledger the buffer was built with, into
// which accts are added in bulk. A Ledger is therefore the attributed total
// of everything its buffers did, read where it is needed (Breakdown).
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
	// CompAggCache is a lookup of the shared result cache (internal/aggcache),
	// not a page access: a Hit is a whole query answered from the cache (so
	// the traffic the backend would have seen is absent from the TIA cells),
	// a Miss is a lookup that fell through to the search.
	// Queries record these cells so per-query I/O stays auditable with
	// caching on — TIA cells still reconcile exactly with backend traffic,
	// and the aggcache cells explain the reads that never happened. The
	// lookups are recorded at level 1.
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
	// access is charged to instead of the buffer's ledger (see IOAcct).
	// Evicting a frame is a side effect of loading another page, so an
	// eviction and its dirty write-back are charged — tag and acct — to
	// the access that forced them.
	Acct *IOAcct
}

// WithAcct returns a copy of t that charges its traffic to a, whose owner
// adds it to the ledger later. A nil a leaves the traffic unowned: the
// buffer counts it in its ledger on the spot.
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
// in its own stats and in the acct, and leaves its ledger alone. The owner
// adds what the acct gathered to the ledger in bulk (Ledger.AddAcct, and
// the tia factories' FoldAcct on top of it), so a page read costs the cores
// no shared cache line and the ledger still reaches the same totals once
// the owner has folded.
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
	// frame back (the write-back itself is one of the PhysicalWrites).
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
	if dirty {
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
// the ledger first (tia.Factory.FoldAcct).
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

// Total folds the breakdown back into flat Stats. For a Ledger's breakdown
// this equals the summed Stats of the buffers built with it once every acct
// has been added — the conservation invariant the accounting tests pin down.
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

// addNonZero spares a bulk add the locked instruction for the counters a
// batch leaves alone (a read-only query's batch is hits and nothing else).
func addNonZero(c *atomic.Int64, d int64) {
	if d != 0 {
		c.Add(d)
	}
}

// ledgerCell is the lock-free accumulator behind one breakdown cell.
type ledgerCell struct {
	hits           atomic.Int64
	misses         atomic.Int64
	logicalWrites  atomic.Int64
	physicalWrites atomic.Int64
	evictions      atomic.Int64
}

// Ledger totals the page traffic of the buffers built with it (see
// NewBufferWithLedger), attributed by (component, level): the one shared
// book a tia factory keeps for all its indexes, however many there are.
// Unowned traffic is counted as it happens, owned traffic when its owner
// adds the acct; nobody is notified — whoever wants the totals (an
// experiment, a /metrics scrape) reads Breakdown, which walks every cell.
//
// A Ledger is cumulative and has no reset: it is shared, and zeroing it
// would skew every reader that diffs two readings (IOBreakdown.Sub). The
// zero Ledger is ready to use; it must not be copied after first use.
type Ledger struct {
	cells [NumComponents][MaxIOLevels]ledgerCell
	// dirtyEvictions is the part of the cells' evictions that wrote a dirty
	// frame back. It is not attributed: IOCell is part of every query
	// response, and only the total is exported.
	dirtyEvictions atomic.Int64
}

// Breakdown returns the current attributed totals.
func (l *Ledger) Breakdown() IOBreakdown {
	var b IOBreakdown
	for c := range l.cells {
		for lv := range l.cells[c] {
			cell := &l.cells[c][lv]
			b[c][lv] = IOCell{
				Hits:           cell.hits.Load(),
				Misses:         cell.misses.Load(),
				LogicalWrites:  cell.logicalWrites.Load(),
				PhysicalWrites: cell.physicalWrites.Load(),
				Evictions:      cell.evictions.Load(),
			}
		}
	}
	return b
}

// Stats returns the flat totals: Breakdown().Total().
func (l *Ledger) Stats() Stats {
	b := l.Breakdown()
	return b.Total()
}

// AddAcct adds the attributed traffic an IOAcct owner gathered privately
// since the acct was last drained, as if each event had been counted when
// it happened. a.IO must be set.
func (l *Ledger) AddAcct(a *IOAcct) {
	a.touched(func(c Component, level int, cell *IOCell) {
		lc := &l.cells[c][level]
		addNonZero(&lc.hits, cell.Hits)
		addNonZero(&lc.misses, cell.Misses)
		addNonZero(&lc.logicalWrites, cell.LogicalWrites)
		addNonZero(&lc.physicalWrites, cell.PhysicalWrites)
		addNonZero(&lc.evictions, cell.Evictions)
	})
	addNonZero(&l.dirtyEvictions, a.DirtyEvictions)
}

// DirtyEvictions returns how many of the evictions in Breakdown wrote a
// dirty frame back.
func (l *Ledger) DirtyEvictions() int64 { return l.dirtyEvictions.Load() }

func (l *Ledger) read(tag IOTag, hit bool) {
	c, lv := tag.clamp()
	if hit {
		l.cells[c][lv].hits.Add(1)
	} else {
		l.cells[c][lv].misses.Add(1)
	}
}

func (l *Ledger) write(tag IOTag, physical bool) {
	c, lv := tag.clamp()
	if physical {
		l.cells[c][lv].physicalWrites.Add(1)
	} else {
		l.cells[c][lv].logicalWrites.Add(1)
	}
}

func (l *Ledger) evicted(tag IOTag, dirty bool) {
	c, lv := tag.clamp()
	l.cells[c][lv].evictions.Add(1)
	if dirty {
		l.dirtyEvictions.Add(1)
	}
}
