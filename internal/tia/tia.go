// Package tia implements the temporal index on the aggregate (TIA) of the
// TAR-tree (Section 4.1 of the paper). A TIA belongs to one tree entry and
// stores one record ⟨ts, te, agg⟩ per epoch with a non-zero aggregate: the
// epoch's start time, end time and aggregate value. The TIA of a leaf entry
// stores the POI's own aggregates; the TIA of an internal entry stores, per
// epoch, the maximum aggregate among the TIAs in its child node.
//
// Every index keeps its records in memory as one sorted slice (Records),
// which is what the tree's maintenance reads. Three interchangeable backends
// are provided: that slice alone (Mem, the default: what a serving tree is
// made of), and two that also hold the records on pages, which their
// Aggregate reads and counts — a disk-based B+-tree (one small buffer pool
// per TIA, the paper's setup: the experiments name it, because page accesses
// are their unit) and the multi-version B-tree the paper names. Keeping
// slice and pages in step is this package's business (Put, MaxMerge), not
// the caller's.
package tia

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"tartree/internal/btree"
	"tartree/internal/mvbt"
	"tartree/internal/pagestore"
)

// BackendKind identifies a TIA backend for the probe counters.
type BackendKind int

const (
	// KindMem is the in-memory sorted-slice backend (the default), and a
	// read of any index's in-memory records (AggregateRecords).
	KindMem BackendKind = iota
	// KindBTree is the disk B+-tree backend (the paper's setup).
	KindBTree
	// KindMVBT is the multi-version B-tree backend.
	KindMVBT
	numKinds
)

// String implements fmt.Stringer with the metric-label spelling.
func (k BackendKind) String() string {
	switch k {
	case KindMem:
		return "mem"
	case KindBTree:
		return "btree"
	case KindMVBT:
		return "mvbt"
	}
	return "unknown"
}

// BackendKinds lists every backend kind.
func BackendKinds() []BackendKind { return []BackendKind{KindMem, KindBTree, KindMVBT} }

// probes counts aggregate probes (Index.Aggregate calls) per backend kind,
// process-wide; cmd/tarserve and cmd/tarbench export the totals as
// tia_probes_total{backend="..."} metrics. A probe without an acct adds
// itself here on the spot; a probe charged to a query's acct is counted
// there and arrives when the query folds the acct (Factory.FoldAcct).
var probes [numKinds]atomic.Int64

// countProbe applies the accounting rule to one probe of kind k.
func countProbe(k BackendKind, acct *pagestore.IOAcct) {
	if acct != nil {
		acct.Probes++
		return
	}
	probes[k].Add(1)
}

// ProbeCount returns the number of aggregate probes issued against the
// given backend kind since process start.
func ProbeCount(k BackendKind) int64 {
	if k < 0 || k >= numKinds {
		return 0
	}
	return probes[k].Load()
}

// Record is one epoch's aggregate: the half-open epoch [Ts, Te) and the
// aggregate value Agg accumulated during it.
type Record struct {
	Ts, Te, Agg int64
}

// Interval is a half-open query time interval [Start, End).
type Interval struct {
	Start, End int64
}

// Contains reports whether the record's epoch lies entirely inside iv.
func (iv Interval) Contains(r Record) bool { return iv.Start <= r.Ts && r.Te <= iv.End }

// Intersects reports whether the record's epoch overlaps iv.
func (iv Interval) Intersects(r Record) bool { return r.Ts < iv.End && iv.Start < r.Te }

// Semantics selects how records are matched against a query interval.
// Section 4.3 of the paper sums the records whose epoch is contained in
// the query interval; Section 3.1 describes intersection. Both are
// supported; Contained is the default everywhere.
type Semantics int

const (
	// Contained matches records whose epoch lies inside the interval.
	Contained Semantics = iota
	// Intersecting matches records whose epoch overlaps the interval.
	Intersecting
)

// Func combines the matching records' values into the temporal aggregate.
// Section 3.1 lists count, min, max, sum and average; count and sum are the
// same fold (each record already holds the epoch's count), and max is the
// other fold consistent with the TAR-tree's internal TIAs: an internal
// entry stores per-epoch maxima over a superset of any child's epochs, so
// both its interval sum and its interval maximum upper-bound every child's.
// Min and average lack that property (a sibling's small epoch value could
// undercut a child's minimum), so they would need a second, min-folding
// TIA per entry; they are intentionally not provided.
type Func int

const (
	// FuncSum adds the matching records' values (count/sum aggregates).
	FuncSum Func = iota
	// FuncMax takes the largest matching value (max aggregate: "the
	// busiest single epoch in the interval").
	FuncMax
)

// fold accumulates v into acc under f.
func (f Func) fold(acc, v int64) int64 {
	if f == FuncMax {
		if v > acc {
			return v
		}
		return acc
	}
	return acc + v
}

// Index is a single TIA. Every index keeps its records in memory, sorted —
// the in-memory index is nothing else, a paged index holds the same records
// a second time on its pages and writes both in one Put or MaxMerge.
//
// Implementations are not safe for concurrent mutation; the TAR-tree
// serializes maintenance per entry.
type Index interface {
	// Put inserts the record for the epoch starting at rec.Ts, overwriting
	// a previous record for the same epoch (internal entries overwrite when
	// a POI insertion raises the per-epoch maximum).
	Put(rec Record) error
	// MaxMerge raises the index to the per-epoch maximum of itself and src
	// (sorted by strictly ascending Ts): for every epoch of src the index
	// lacks, or holds a smaller aggregate for, src's record is stored. This
	// is how an internal entry's TIA is maintained (Section 4.1: "the TIA of
	// an internal entry stores the largest aggregate value of the TIAs in
	// the child node for each epoch"). The records merge in one pass; a
	// paged index also writes the raised rows, in ascending order, to its
	// pages.
	MaxMerge(src []Record) error
	// Aggregate folds the Agg of all records matching iv under sem with f,
	// charging the probe and its page accesses to the query-local acct, or —
	// acct nil — counting them in the shared books on the spot. Queries
	// thread their own acct here so per-query I/O accounting stays exact
	// when many queries run concurrently, and so a probe writes no shared
	// counter: what the acct gathers reaches the factory's ledger and the
	// probe totals when its owner calls Factory.FoldAcct. Read-only calls
	// (Aggregate, Records) are safe from many goroutines at once.
	Aggregate(iv Interval, sem Semantics, f Func, acct *pagestore.IOAcct) (int64, error)
	// Records exposes the records, sorted by ascending Ts, without touching
	// a page. Callers must not modify the slice; ingest, the grouping
	// strategies, rebuilds and snapshots read it.
	Records() []Record
	// Destroy releases any storage held by the index. The index must not be
	// used afterwards. It is called when an internal entry's TIA is rebuilt
	// after the R-tree regroups entries.
	Destroy() error
}

// Factory creates Indexes that share a storage substrate and one ledger of
// their page traffic (the experiments report TIA accesses). The per-index
// buffer size is a constructor argument (the collective-processing
// experiment uses zero slots).
type Factory interface {
	// New creates an index over recs: sorted by strictly ascending Ts and
	// handed over (the index may keep the slice as its storage), nil for an
	// empty index. A B+-tree is built from them bottom-up, one page write
	// per node, so a snapshot load writes each TIA page exactly once.
	New(recs []Record) (Index, error)
	// Ledger returns the combined page traffic of every index created so
	// far, attributed by (component, level). It is cumulative: readers
	// that want a window subtract an earlier reading (IOBreakdown.Sub,
	// Stats.Sub). Traffic a query charged to its acct shows once the query
	// has folded it, which the best-first search does before it hands
	// control back to its caller.
	Ledger() *pagestore.Ledger
	// FoldAcct adds what a query counted privately in a — the page traffic
	// and probes of Aggregate calls on this factory's indexes — to the
	// ledger and the process-wide probe totals, as if each event had been
	// counted when it happened. The ledger is attributed, so a.IO must be
	// set. The owner folds each access once: it drains or discards a
	// afterwards.
	FoldAcct(a *pagestore.IOAcct)
}

func match(r Record, iv Interval, sem Semantics) bool {
	if sem == Contained {
		return iv.Contains(r)
	}
	return iv.Intersects(r)
}

// foldFrom folds the records of recs (sorted by Ts) that match iv, starting
// the scan at the first record with Ts >= lo.
func foldFrom(recs []Record, lo int64, iv Interval, sem Semantics, f Func) int64 {
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Ts >= lo })
	var acc int64
	for ; i < len(recs) && recs[i].Ts < iv.End; i++ {
		if match(recs[i], iv, sem) {
			acc = f.fold(acc, recs[i].Agg)
		}
	}
	return acc
}

// AggregateRecords is Index.Aggregate over a bare sorted record set — what
// Index.Records returns — with no index behind it: no page is read, and the
// fold is counted as one in-memory probe. The references the tests compare
// a search against (core's ScorePOI and AggregateMirror) are built on it.
func AggregateRecords(recs []Record, iv Interval, sem Semantics, f Func) int64 {
	probes[KindMem].Add(1)
	lo := iv.Start
	if sem == Intersecting { // no span is known: an early record may reach in
		lo = math.MinInt64
	}
	return foldFrom(recs, lo, iv, sem, f)
}

// ---------------------------------------------------------------------------
// In-memory backend

// Mem is an in-memory Index: a sorted record slice, the index of a serving
// tree's entries. The paged indexes embed one for the records they keep
// beside their pages.
type Mem struct {
	recs []Record
	// maxSpan is the widest epoch stored, so intersection queries know how
	// far left of the interval a relevant record can start.
	maxSpan int64
}

// NewMem returns an empty in-memory index.
func NewMem() *Mem { return &Mem{} }

func (m *Mem) note(r Record) {
	if d := r.Te - r.Ts; d > m.maxSpan {
		m.maxSpan = d
	}
}

// scanLow returns the lowest Ts that could match iv under sem.
func (m *Mem) scanLow(iv Interval, sem Semantics) int64 {
	if sem == Contained {
		return iv.Start
	}
	lo := iv.Start - m.maxSpan
	if lo > iv.Start { // overflow guard
		lo = math.MinInt64
	}
	return lo
}

// Put implements Index.
func (m *Mem) Put(rec Record) error {
	m.note(rec)
	i := sort.Search(len(m.recs), func(i int) bool { return m.recs[i].Ts >= rec.Ts })
	if i < len(m.recs) && m.recs[i].Ts == rec.Ts {
		m.recs[i] = rec
		return nil
	}
	m.recs = append(m.recs, Record{})
	copy(m.recs[i+1:], m.recs[i:])
	m.recs[i] = rec
	return nil
}

// Aggregate implements Index; memory indexes have no page traffic, so only
// the probe itself is charged to the acct.
func (m *Mem) Aggregate(iv Interval, sem Semantics, f Func, acct *pagestore.IOAcct) (int64, error) {
	countProbe(KindMem, acct)
	return foldFrom(m.recs, m.scanLow(iv, sem), iv, sem, f), nil
}

// Records implements Index.
func (m *Mem) Records() []Record { return m.recs }

// ManhattanRecords returns the L1 distance between two sorted record sets,
// treating missing epochs as zero. This is the aggregate-distribution
// distance of the paper's IND-agg grouping strategy (Section 5.1).
func ManhattanRecords(a, b []Record) int64 {
	var d int64
	i, j := 0, 0
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Ts == b[j].Ts:
			d += abs(a[i].Agg - b[j].Agg)
			i++
			j++
		case a[i].Ts < b[j].Ts:
			d += abs(a[i].Agg)
			i++
		default:
			d += abs(b[j].Agg)
			j++
		}
	}
	for ; i < len(a); i++ {
		d += abs(a[i].Agg)
	}
	for ; j < len(b); j++ {
		d += abs(b[j].Agg)
	}
	return d
}

// Destroy implements Index.
func (m *Mem) Destroy() error {
	m.recs = nil
	return nil
}

// MaxMerge implements Index: it counts the epochs m lacks, grows m's slice
// by that many, and merges from the back — so no record is overwritten
// before it is read and nothing else is allocated. As with Put, only a
// record that lands in m widens the tracked span.
func (m *Mem) MaxMerge(src []Record) error {
	d := m.recs
	missing := 0
	for i, j := 0, 0; j < len(src); {
		switch {
		case i == len(d) || src[j].Ts < d[i].Ts:
			missing++
			j++
		case src[j].Ts == d[i].Ts:
			i++
			j++
		default:
			i++
		}
	}
	i := len(d) - 1
	d = slices.Grow(d, missing)[:len(d)+missing]
	for j, k := len(src)-1, len(d)-1; j >= 0; k-- {
		switch {
		case i >= 0 && d[i].Ts > src[j].Ts:
			d[k] = d[i]
			i--
		case i >= 0 && d[i].Ts == src[j].Ts:
			d[k] = d[i]
			if src[j].Agg > d[i].Agg {
				d[k] = src[j]
				m.note(src[j])
			}
			i--
			j--
		default:
			d[k] = src[j]
			m.note(src[j])
			j--
		}
	}
	m.recs = d
	return nil
}

// mergePaged is MaxMerge for an index that holds m's records a second time
// on pages: the rows the merge is about to raise go through put, in
// ascending order, before the records themselves merge.
func (m *Mem) mergePaged(src []Record, put func(Record) error) error {
	i := 0
	for _, r := range src {
		for i < len(m.recs) && m.recs[i].Ts < r.Ts {
			i++
		}
		if i < len(m.recs) && m.recs[i].Ts == r.Ts && m.recs[i].Agg >= r.Agg {
			continue
		}
		if err := put(r); err != nil {
			return err
		}
	}
	return m.MaxMerge(src)
}

// MemFactory creates Mem indexes. Its ledger stays empty: memory access is
// free in the paper's cost accounting.
type MemFactory struct{ ledger pagestore.Ledger }

// NewMemFactory returns a factory of in-memory indexes.
func NewMemFactory() *MemFactory { return &MemFactory{} }

// New implements Factory: recs is the index's storage.
func (*MemFactory) New(recs []Record) (Index, error) { return newMem(recs), nil }

// newMem returns the in-memory index over recs, which become its storage.
func newMem(recs []Record) *Mem {
	m := &Mem{recs: recs}
	for _, r := range recs {
		m.note(r)
	}
	return m
}

// Ledger implements Factory.
func (f *MemFactory) Ledger() *pagestore.Ledger { return &f.ledger }

// FoldAcct implements Factory: memory indexes produce no page traffic, so
// only the probes are folded.
func (*MemFactory) FoldAcct(a *pagestore.IOAcct) { probes[KindMem].Add(a.Probes) }

// ---------------------------------------------------------------------------
// B+-tree backend

// BTree is an Index stored in a disk-based B+-tree keyed by epoch start,
// beside the in-memory records every index keeps.
type BTree struct {
	Mem
	tree *btree.Tree
}

func (b *BTree) putPage(rec Record) error {
	return b.tree.Put(rec.Ts, btree.Value{rec.Te, rec.Agg})
}

// Put implements Index.
func (b *BTree) Put(rec Record) error {
	b.Mem.Put(rec) //nolint:errcheck // in memory: cannot fail
	return b.putPage(rec)
}

// MaxMerge implements Index.
func (b *BTree) MaxMerge(src []Record) error { return b.mergePaged(src, b.putPage) }

// Aggregate implements Index, charging the B+-tree page accesses of this
// probe to acct.
func (b *BTree) Aggregate(iv Interval, sem Semantics, f Func, acct *pagestore.IOAcct) (int64, error) {
	countProbe(KindBTree, acct)
	var acc int64
	err := b.tree.ScanAcct(b.scanLow(iv, sem), iv.End-1, acct, func(ts int64, v btree.Value) bool {
		if match(Record{Ts: ts, Te: v[0], Agg: v[1]}, iv, sem) {
			acc = f.fold(acc, v[1])
		}
		return true
	})
	return acc, err
}

// Destroy implements Index.
func (b *BTree) Destroy() error {
	b.recs = nil
	return b.tree.Destroy()
}

// pagedFactory is what the two disk-backed factories share: the page file,
// one small buffer pool per index, and the one ledger all of them count
// into. It keeps no list of the buffers: a destroyed index is garbage.
type pagedFactory struct {
	kind   BackendKind
	file   pagestore.File
	slots  int
	ledger pagestore.Ledger
}

// newBuffer creates the buffer pool of one more index.
func (f *pagedFactory) newBuffer() *pagestore.Buffer {
	return pagestore.NewBufferWithLedger(f.file, f.slots, &f.ledger)
}

// Ledger implements Factory.
func (f *pagedFactory) Ledger() *pagestore.Ledger { return &f.ledger }

// FoldAcct implements Factory.
func (f *pagedFactory) FoldAcct(a *pagestore.IOAcct) {
	probes[f.kind].Add(a.Probes)
	f.ledger.AddAcct(a)
}

// BTreeFactory creates B+-tree indexes sharing one page file; every index
// gets its own small buffer pool, matching the paper's "each TIA is
// assigned a maximum of 10 buffer slots".
type BTreeFactory struct{ pagedFactory }

// NewBTreeFactory creates a factory over an in-memory simulated disk with
// the given page size and per-index buffer slots.
func NewBTreeFactory(pageSize, slots int) *BTreeFactory {
	return NewBTreeFactoryWithFile(pagestore.NewMemFile(pageSize), slots)
}

// NewBTreeFactoryWithFile creates a factory over an existing page file.
func NewBTreeFactoryWithFile(f pagestore.File, slots int) *BTreeFactory {
	return &BTreeFactory{pagedFactory{kind: KindBTree, file: f, slots: slots}}
}

// New implements Factory: given records, the B+-tree is built bottom-up
// from them instead of descending from the root once per record.
func (f *BTreeFactory) New(recs []Record) (Index, error) {
	buf := f.newBuffer()
	var t *btree.Tree
	var err error
	if recs == nil {
		t, err = btree.New(buf)
	} else {
		keys := make([]int64, len(recs))
		vals := make([]btree.Value, len(recs))
		for i, r := range recs {
			keys[i] = r.Ts
			vals[i] = btree.Value{r.Te, r.Agg}
		}
		t, err = btree.NewBulk(buf, keys, vals)
	}
	if err != nil {
		return nil, err
	}
	return &BTree{Mem: *newMem(recs), tree: t}, nil
}

// ---------------------------------------------------------------------------
// Multi-version B-tree backend

// MVBT is an Index stored in a multi-version B-tree, the implementation the
// paper names, beside the in-memory records every index keeps. Records are
// inserted at monotonically increasing versions and queried at the current
// version.
type MVBT struct {
	Mem
	tree *mvbt.Tree
	buf  *pagestore.Buffer
}

func (m *MVBT) putPage(rec Record) error {
	v := m.tree.Now()
	if rec.Ts > v {
		v = rec.Ts
	}
	if _, ok, err := m.tree.Get(v, rec.Ts); err != nil {
		return err
	} else if ok {
		return m.tree.Update(v, rec.Ts, mvbt.Value{rec.Te, rec.Agg})
	}
	return m.tree.Insert(v, rec.Ts, mvbt.Value{rec.Te, rec.Agg})
}

// Put implements Index.
func (m *MVBT) Put(rec Record) error {
	m.Mem.Put(rec) //nolint:errcheck // in memory: cannot fail
	return m.putPage(rec)
}

// MaxMerge implements Index.
func (m *MVBT) MaxMerge(src []Record) error { return m.mergePaged(src, m.putPage) }

// Aggregate implements Index, charging the MVBT page accesses of this probe
// to acct.
func (m *MVBT) Aggregate(iv Interval, sem Semantics, f Func, acct *pagestore.IOAcct) (int64, error) {
	countProbe(KindMVBT, acct)
	var acc int64
	err := m.tree.ScanAtAcct(m.tree.Now(), m.scanLow(iv, sem), iv.End-1, acct, func(ts int64, v mvbt.Value) bool {
		if match(Record{Ts: ts, Te: v[0], Agg: v[1]}, iv, sem) {
			acc = f.fold(acc, v[1])
		}
		return true
	})
	return acc, err
}

// Destroy implements Index.
func (m *MVBT) Destroy() error {
	// Historical MVBT nodes are shared with no free-list bookkeeping; we
	// simply drop the buffer. The factory's file reclaims space only when
	// it is closed, which matches how scratch MVBTs are used.
	m.recs = nil
	m.buf.Drop()
	return nil
}

// MVBTFactory creates MVBT indexes sharing one page file.
type MVBTFactory struct{ pagedFactory }

// NewMVBTFactory creates a factory over an in-memory simulated disk.
func NewMVBTFactory(pageSize, slots int) *MVBTFactory {
	return &MVBTFactory{pagedFactory{kind: KindMVBT, file: pagestore.NewMemFile(pageSize), slots: slots}}
}

// New implements Factory: the records are inserted one version each.
func (f *MVBTFactory) New(recs []Record) (Index, error) {
	buf := f.newBuffer()
	t, err := mvbt.New(buf)
	if err != nil {
		return nil, err
	}
	m := &MVBT{Mem: *newMem(recs), tree: t, buf: buf}
	for _, r := range recs {
		if err := m.putPage(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}
