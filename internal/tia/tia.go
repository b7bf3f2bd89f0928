// Package tia implements the temporal index on the aggregate (TIA) of the
// TAR-tree (Section 4.1 of the paper). A TIA belongs to one tree entry and
// stores one record ⟨ts, te, agg⟩ per epoch with a non-zero aggregate: the
// epoch's start time, end time and aggregate value. The TIA of a leaf entry
// stores the POI's own aggregates; the TIA of an internal entry stores, per
// epoch, the maximum aggregate among the TIAs in its child node.
//
// Three interchangeable backends are provided: an in-memory sorted slice
// (the default: what a serving tree is made of), a disk-based B+-tree (one
// small buffer pool per TIA, the paper's setup — the experiments name it,
// because page accesses are their unit), and the multi-version B-tree the
// paper names.
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
	// KindMem is the in-memory sorted-slice backend (the default, and the
	// mirrors of the paged backends).
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

// Index is a single TIA.
//
// Implementations are not safe for concurrent mutation; the TAR-tree
// serializes maintenance per entry.
type Index interface {
	// Put inserts the record for the epoch starting at rec.Ts, overwriting
	// a previous record for the same epoch (internal entries overwrite when
	// a POI insertion raises the per-epoch maximum).
	Put(rec Record) error
	// Aggregate folds the Agg of all records matching iv under sem with f,
	// charging the probe and its page accesses to the query-local acct, or —
	// acct nil — counting them in the shared books on the spot. Queries
	// thread their own acct here so per-query I/O accounting stays exact
	// when many queries run concurrently, and so a probe writes no shared
	// counter: what the acct gathers reaches the factory's ledger and the
	// probe totals when its owner calls Factory.FoldAcct. Read-only calls
	// (Aggregate, Visit) are safe from many goroutines at once.
	Aggregate(iv Interval, sem Semantics, f Func, acct *pagestore.IOAcct) (int64, error)
	// Visit iterates all records in ascending Ts order, stopping early when
	// fn returns false.
	Visit(fn func(Record) bool) error
	// Len returns the number of stored records.
	Len() int
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
	New() (Index, error)
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

// BulkFactory is the optional fast path a Factory may implement: NewBulk
// builds an index from records already sorted by strictly ascending Ts in
// one bottom-up pass instead of per-record puts. The snapshot-v3 loader
// probes for it so a restart writes each TIA page exactly once. The index
// may keep recs as its storage: the caller hands the slice over.
type BulkFactory interface {
	NewBulk(recs []Record) (Index, error)
}

// spanTracker records the widest epoch seen, so intersection queries know
// how far left of the interval a relevant record can start.
type spanTracker struct {
	maxSpan int64
}

func (s *spanTracker) note(r Record) {
	if d := r.Te - r.Ts; d > s.maxSpan {
		s.maxSpan = d
	}
}

// scanLow returns the lowest Ts that could match iv under sem.
func (s *spanTracker) scanLow(iv Interval, sem Semantics) int64 {
	if sem == Contained {
		return iv.Start
	}
	lo := iv.Start - s.maxSpan
	if lo > iv.Start { // overflow guard
		lo = math.MinInt64
	}
	return lo
}

func match(r Record, iv Interval, sem Semantics) bool {
	if sem == Contained {
		return iv.Contains(r)
	}
	return iv.Intersects(r)
}

// ---------------------------------------------------------------------------
// In-memory backend

// Mem is an in-memory Index backed by a sorted slice: the index of a
// serving tree's entries, and the mirror a tree keeps beside every paged
// index for grouping decisions and rebuilds.
type Mem struct {
	spanTracker
	recs []Record
}

// NewMem returns an empty in-memory index.
func NewMem() *Mem { return &Mem{} }

// NewMemFromSorted returns an in-memory index over records already sorted
// by strictly ascending Ts. The slice is copied.
func NewMemFromSorted(recs []Record) *Mem {
	return NewMemOwning(append([]Record(nil), recs...))
}

// NewMemOwning is NewMemFromSorted without the copy: recs becomes the
// index's storage, so the caller must not touch the slice again.
func NewMemOwning(recs []Record) *Mem {
	m := &Mem{recs: recs}
	for _, r := range recs {
		m.note(r)
	}
	return m
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
	lo := m.scanLow(iv, sem)
	i := sort.Search(len(m.recs), func(i int) bool { return m.recs[i].Ts >= lo })
	var acc int64
	for ; i < len(m.recs) && m.recs[i].Ts < iv.End; i++ {
		if match(m.recs[i], iv, sem) {
			acc = f.fold(acc, m.recs[i].Agg)
		}
	}
	return acc, nil
}

// Visit implements Index.
func (m *Mem) Visit(fn func(Record) bool) error {
	for _, r := range m.recs {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// Len implements Index.
func (m *Mem) Len() int { return len(m.recs) }

// Records exposes the sorted record slice. Callers must not modify it; the
// TAR-tree's grouping strategies use it for fast distribution distances.
func (m *Mem) Records() []Record { return m.recs }

// Total returns the sum of all aggregate values.
func (m *Mem) Total() int64 {
	var s int64
	for _, r := range m.recs {
		s += r.Agg
	}
	return s
}

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

// MemFactory creates Mem indexes. Its ledger stays empty: memory access is
// free in the paper's cost accounting.
type MemFactory struct{ ledger pagestore.Ledger }

// NewMemFactory returns a factory of in-memory indexes.
func NewMemFactory() *MemFactory { return &MemFactory{} }

// New implements Factory.
func (*MemFactory) New() (Index, error) { return NewMem(), nil }

// NewBulk implements BulkFactory: recs is the index's storage.
func (*MemFactory) NewBulk(recs []Record) (Index, error) { return NewMemOwning(recs), nil }

// Ledger implements Factory.
func (f *MemFactory) Ledger() *pagestore.Ledger { return &f.ledger }

// FoldAcct implements Factory: memory indexes produce no page traffic, so
// only the probes are folded.
func (*MemFactory) FoldAcct(a *pagestore.IOAcct) { probes[KindMem].Add(a.Probes) }

// ---------------------------------------------------------------------------
// B+-tree backend

// BTree is an Index stored in a disk-based B+-tree keyed by epoch start.
type BTree struct {
	spanTracker
	tree *btree.Tree
	buf  *pagestore.Buffer
}

// Put implements Index.
func (b *BTree) Put(rec Record) error {
	b.note(rec)
	return b.tree.Put(rec.Ts, btree.Value{rec.Te, rec.Agg})
}

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

// Visit implements Index.
func (b *BTree) Visit(fn func(Record) bool) error {
	return b.tree.Scan(math.MinInt64, math.MaxInt64, func(ts int64, v btree.Value) bool {
		return fn(Record{Ts: ts, Te: v[0], Agg: v[1]})
	})
}

// Len implements Index.
func (b *BTree) Len() int { return b.tree.Len() }

// Destroy implements Index.
func (b *BTree) Destroy() error { return b.tree.Destroy() }

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

// New implements Factory.
func (f *BTreeFactory) New() (Index, error) {
	buf := f.newBuffer()
	t, err := btree.New(buf)
	if err != nil {
		return nil, err
	}
	return &BTree{tree: t, buf: buf}, nil
}

// NewBulk implements BulkFactory: the B+-tree is built bottom-up from the
// sorted records, one page write per node, instead of descending from the
// root once per record.
func (f *BTreeFactory) NewBulk(recs []Record) (Index, error) {
	buf := f.newBuffer()
	keys := make([]int64, len(recs))
	vals := make([]btree.Value, len(recs))
	for i, r := range recs {
		keys[i] = r.Ts
		vals[i] = btree.Value{r.Te, r.Agg}
	}
	t, err := btree.NewBulk(buf, keys, vals)
	if err != nil {
		return nil, err
	}
	b := &BTree{tree: t, buf: buf}
	for _, r := range recs {
		b.note(r)
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Multi-version B-tree backend

// MVBT is an Index stored in a multi-version B-tree, the implementation the
// paper names. Records are inserted at monotonically increasing versions
// and queried at the current version.
type MVBT struct {
	spanTracker
	tree *mvbt.Tree
	buf  *pagestore.Buffer
	n    int
}

// Put implements Index.
func (m *MVBT) Put(rec Record) error {
	m.note(rec)
	v := m.tree.Now()
	if rec.Ts > v {
		v = rec.Ts
	}
	if _, ok, err := m.tree.Get(v, rec.Ts); err != nil {
		return err
	} else if ok {
		return m.tree.Update(v, rec.Ts, mvbt.Value{rec.Te, rec.Agg})
	}
	m.n++
	return m.tree.Insert(v, rec.Ts, mvbt.Value{rec.Te, rec.Agg})
}

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

// Visit implements Index.
func (m *MVBT) Visit(fn func(Record) bool) error {
	return m.tree.ScanAt(m.tree.Now(), math.MinInt64, math.MaxInt64, func(ts int64, v mvbt.Value) bool {
		return fn(Record{Ts: ts, Te: v[0], Agg: v[1]})
	})
}

// Len implements Index.
func (m *MVBT) Len() int { return m.n }

// Destroy implements Index.
func (m *MVBT) Destroy() error {
	// Historical MVBT nodes are shared with no free-list bookkeeping; we
	// simply drop the buffer. The factory's file reclaims space only when
	// it is closed, which matches how scratch MVBTs are used.
	m.buf.Drop()
	return nil
}

// MVBTFactory creates MVBT indexes sharing one page file.
type MVBTFactory struct{ pagedFactory }

// NewMVBTFactory creates a factory over an in-memory simulated disk.
func NewMVBTFactory(pageSize, slots int) *MVBTFactory {
	return &MVBTFactory{pagedFactory{kind: KindMVBT, file: pagestore.NewMemFile(pageSize), slots: slots}}
}

// New implements Factory.
func (f *MVBTFactory) New() (Index, error) {
	buf := f.newBuffer()
	t, err := mvbt.New(buf)
	if err != nil {
		return nil, err
	}
	return &MVBT{tree: t, buf: buf}, nil
}

// MaxMerge stores into dst the per-epoch maximum of dst and src: for every
// epoch in src, dst's record becomes the larger aggregate. This is how an
// internal entry's TIA is maintained (Section 4.1: "the TIA of an internal
// entry stores the largest aggregate value of the TIAs in the child node
// for each epoch"). Two in-memory indexes merge their sorted records in one
// pass; a paged index takes one Put per raised epoch.
func MaxMerge(dst, src Index) error {
	if d, ok := dst.(*Mem); ok {
		if s, ok := src.(*Mem); ok {
			d.maxMerge(s.recs)
			return nil
		}
	}
	var rs []Record
	if err := src.Visit(func(r Record) bool { rs = append(rs, r); return true }); err != nil {
		return err
	}
	var ds []Record
	if err := dst.Visit(func(r Record) bool { ds = append(ds, r); return true }); err != nil {
		return err
	}
	have := make(map[int64]int64, len(ds))
	for _, r := range ds {
		have[r.Ts] = r.Agg
	}
	for _, r := range rs {
		if cur, ok := have[r.Ts]; !ok || r.Agg > cur {
			if err := dst.Put(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxMerge is MaxMerge over two sorted record slices: it counts the epochs
// m lacks, grows m's slice by that many, and merges from the back — so no
// record is overwritten before it is read and nothing else is allocated.
// As with Put, only a record that lands in m widens the tracked span.
func (m *Mem) maxMerge(src []Record) {
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
}
