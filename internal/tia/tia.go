// Package tia implements the temporal index on the aggregate (TIA) of the
// TAR-tree (Section 4.1 of the paper). A TIA belongs to one tree entry and
// stores one record ⟨ts, te, agg⟩ per epoch with a non-zero aggregate: the
// epoch's start time, end time and aggregate value. The TIA of a leaf entry
// stores the POI's own aggregates; the TIA of an internal entry stores, per
// epoch, the maximum aggregate among the TIAs in its child node.
//
// An Index is one concrete type: its records in one sorted in-memory slice
// (Records), which the tree's maintenance reads and a serving tree's queries
// fold. The experiments count pages, so a paged factory gives each index a
// shadow as well — the same records on pages, in a disk-based B+-tree (one
// small buffer pool per TIA, the paper's setup) or the multi-version B-tree
// the paper names — which its Aggregate then reads and counts. Keeping
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
	// KindMem is a probe of an index without a shadow (the default), and a
	// read of any index's in-memory records (AggregateRecords).
	KindMem BackendKind = iota
	// KindBTree is a probe of a disk B+-tree shadow (the paper's setup).
	KindBTree
	// KindMVBT is a probe of a multi-version B-tree shadow.
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

// Index is a single TIA: its records, sorted by strictly ascending Ts, in
// one in-memory slice that ingest, grouping, rebuilds, snapshots and — on a
// serving tree — every query read. An index made by a paged factory
// (NewBTreeFactory, NewMVBTFactory) also holds the same records a second
// time on pages, its shadow: Put and MaxMerge write both, and Aggregate
// reads the pages and counts them, since page accesses are the unit of the
// paper's experiments. An index without a shadow touches no page.
//
// The zero Index is an empty in-memory index. An Index is not safe for
// concurrent mutation; the TAR-tree serializes maintenance per entry.
// Read-only calls (Aggregate, Records) are safe from many goroutines at
// once.
type Index struct {
	recs []Record
	// maxSpan is the widest epoch stored, so intersection queries know how
	// far left of the interval a relevant record can start.
	maxSpan int64
	pages   *shadow // nil unless a paged factory made the index
}

// Factory creates Indexes that share a storage substrate and one ledger of
// their page traffic (the experiments report TIA accesses). The per-index
// buffer size is a constructor argument (the collective-processing
// experiment uses zero slots).
type Factory interface {
	// New creates an index over recs: sorted by strictly ascending Ts and
	// handed over (the index keeps the slice as its storage), nil for an
	// empty index. A B+-tree shadow is built from them bottom-up, one page
	// write per node, so a snapshot load writes each TIA page exactly once.
	New(recs []Record) (*Index, error)
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

// newIndex returns the in-memory index over recs, which become its storage.
func newIndex(recs []Record) *Index {
	x := &Index{recs: recs}
	for _, r := range recs {
		x.note(r)
	}
	return x
}

func (x *Index) note(r Record) {
	if d := r.Te - r.Ts; d > x.maxSpan {
		x.maxSpan = d
	}
}

// scanLow returns the lowest Ts that could match iv under sem.
func (x *Index) scanLow(iv Interval, sem Semantics) int64 {
	if sem == Contained {
		return iv.Start
	}
	lo := iv.Start - x.maxSpan
	if lo > iv.Start { // overflow guard
		lo = math.MinInt64
	}
	return lo
}

// Put inserts the record for the epoch starting at rec.Ts, overwriting a
// previous record for the same epoch (internal entries overwrite when a POI
// insertion raises the per-epoch maximum), and writes it to the shadow.
func (x *Index) Put(rec Record) error {
	x.note(rec)
	i := sort.Search(len(x.recs), func(i int) bool { return x.recs[i].Ts >= rec.Ts })
	if i < len(x.recs) && x.recs[i].Ts == rec.Ts {
		x.recs[i] = rec
	} else {
		x.recs = append(x.recs, Record{})
		copy(x.recs[i+1:], x.recs[i:])
		x.recs[i] = rec
	}
	if x.pages != nil {
		return x.pages.put(rec)
	}
	return nil
}

// MaxMerge raises the index to the per-epoch maximum of itself and src
// (sorted by strictly ascending Ts): for every epoch of src the index lacks,
// or holds a smaller aggregate for, src's record is stored. This is how an
// internal entry's TIA is maintained (Section 4.1: "the TIA of an internal
// entry stores the largest aggregate value of the TIAs in the child node
// for each epoch"). With a shadow, the raised rows are first written to the
// pages, in ascending order.
//
// The records merge in one pass: it counts the epochs x lacks, grows x's
// slice by that many, and merges from the back — so no record is
// overwritten before it is read and nothing else is allocated. As with Put,
// only a record that lands in x widens the tracked span.
func (x *Index) MaxMerge(src []Record) error {
	if x.pages != nil {
		if err := x.putRaised(src); err != nil {
			return err
		}
	}
	d := x.recs
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
				x.note(src[j])
			}
			i--
			j--
		default:
			d[k] = src[j]
			x.note(src[j])
			j--
		}
	}
	x.recs = d
	return nil
}

// putRaised writes to the shadow the rows of src that MaxMerge is about to
// raise, in ascending order.
func (x *Index) putRaised(src []Record) error {
	i := 0
	for _, r := range src {
		for i < len(x.recs) && x.recs[i].Ts < r.Ts {
			i++
		}
		if i < len(x.recs) && x.recs[i].Ts == r.Ts && x.recs[i].Agg >= r.Agg {
			continue
		}
		if err := x.pages.put(r); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate folds the Agg of all records matching iv under sem with f,
// charging the probe — and, with a shadow, the page accesses that answer it
// — to the query-local acct, or (acct nil) counting them in the shared
// books on the spot. Queries thread their own acct here so per-query I/O
// accounting stays exact when many queries run concurrently, and so a
// probe writes no shared counter: what the acct gathers reaches the
// factory's ledger and the probe totals when its owner calls
// Factory.FoldAcct. Without a shadow it cannot fail.
func (x *Index) Aggregate(iv Interval, sem Semantics, f Func, acct *pagestore.IOAcct) (int64, error) {
	lo := x.scanLow(iv, sem)
	if x.pages != nil {
		return x.pages.aggregate(lo, iv, sem, f, acct)
	}
	countProbe(KindMem, acct)
	return foldFrom(x.recs, lo, iv, sem, f), nil
}

// Records exposes the records, sorted by ascending Ts, without touching a
// page. Callers must not modify the slice.
func (x *Index) Records() []Record { return x.recs }

// Destroy releases the records and any pages the index holds. The index
// must not be used afterwards. It is called when an internal entry's TIA is
// rebuilt after the R-tree regroups entries, and when a POI is deleted.
func (x *Index) Destroy() error {
	x.recs = nil
	if x.pages != nil {
		return x.pages.destroy()
	}
	return nil
}

// PageRecords returns what a full scan of the index's shadow reads, and
// false for an index without one. It lets tests check that the pages hold
// exactly Records().
func (x *Index) PageRecords() ([]Record, bool, error) {
	if x.pages == nil {
		return nil, false, nil
	}
	var recs []Record
	visit := func(ts int64, v [2]int64) bool {
		recs = append(recs, Record{Ts: ts, Te: v[0], Agg: v[1]})
		return true
	}
	var err error
	if s := x.pages; s.bt != nil {
		err = s.bt.Scan(math.MinInt64, math.MaxInt64, func(ts int64, v btree.Value) bool { return visit(ts, v) })
	} else {
		err = s.mv.ScanAt(s.mv.Now(), math.MinInt64, math.MaxInt64, func(ts int64, v mvbt.Value) bool { return visit(ts, v) })
	}
	return recs, true, err
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

// MemFactory creates in-memory indexes. Its ledger stays empty: memory
// access is free in the paper's cost accounting.
type MemFactory struct{ ledger pagestore.Ledger }

// NewMemFactory returns a factory of in-memory indexes.
func NewMemFactory() *MemFactory { return &MemFactory{} }

// New implements Factory: recs is the index's storage.
func (*MemFactory) New(recs []Record) (*Index, error) { return newIndex(recs), nil }

// Ledger implements Factory.
func (f *MemFactory) Ledger() *pagestore.Ledger { return &f.ledger }

// FoldAcct implements Factory: memory indexes produce no page traffic, so
// only the probes are folded.
func (*MemFactory) FoldAcct(a *pagestore.IOAcct) { probes[KindMem].Add(a.Probes) }

// ---------------------------------------------------------------------------
// Page shadows

// shadow is the page-resident copy of an index's records: a disk-based
// B+-tree keyed by epoch start (the paper's setup) or the multi-version
// B-tree the paper names, inserted at monotonically increasing versions and
// read at the current one. Either sits behind the index's own small buffer
// pool.
type shadow struct {
	kind BackendKind
	bt   *btree.Tree // KindBTree
	mv   *mvbt.Tree  // KindMVBT
	buf  *pagestore.Buffer
}

func (s *shadow) put(rec Record) error {
	if s.bt != nil {
		return s.bt.Put(rec.Ts, btree.Value{rec.Te, rec.Agg})
	}
	v := max(s.mv.Now(), rec.Ts)
	if _, ok, err := s.mv.Get(v, rec.Ts); err != nil {
		return err
	} else if ok {
		return s.mv.Update(v, rec.Ts, mvbt.Value{rec.Te, rec.Agg})
	}
	return s.mv.Insert(v, rec.Ts, mvbt.Value{rec.Te, rec.Agg})
}

// aggregate is Index.Aggregate read from the pages, from Ts lo on.
func (s *shadow) aggregate(lo int64, iv Interval, sem Semantics, f Func, acct *pagestore.IOAcct) (int64, error) {
	countProbe(s.kind, acct)
	var acc int64
	var err error
	if s.bt != nil {
		err = s.bt.ScanAcct(lo, iv.End-1, acct, func(ts int64, v btree.Value) bool {
			if match(Record{Ts: ts, Te: v[0], Agg: v[1]}, iv, sem) {
				acc = f.fold(acc, v[1])
			}
			return true
		})
	} else {
		err = s.mv.ScanAtAcct(s.mv.Now(), lo, iv.End-1, acct, func(ts int64, v mvbt.Value) bool {
			if match(Record{Ts: ts, Te: v[0], Agg: v[1]}, iv, sem) {
				acc = f.fold(acc, v[1])
			}
			return true
		})
	}
	return acc, err
}

func (s *shadow) destroy() error {
	if s.bt != nil {
		return s.bt.Destroy()
	}
	// Historical MVBT nodes are shared with no free-list bookkeeping; we
	// simply drop the buffer. The factory's file reclaims space only when
	// it is closed, which matches how scratch MVBTs are used.
	s.buf.Drop()
	return nil
}

// PagedFactory creates indexes with a page shadow, all sharing one page
// file (an in-memory simulated disk); every index gets its own small buffer
// pool, matching the paper's "each TIA is assigned a maximum of 10 buffer
// slots". It keeps no list of the buffers: a destroyed index is garbage.
type PagedFactory struct {
	kind   BackendKind
	file   pagestore.File
	slots  int
	ledger pagestore.Ledger
}

// NewBTreeFactory creates a factory of B+-tree-shadowed indexes with the
// given page size and per-index buffer slots: the paper's setup.
func NewBTreeFactory(pageSize, slots int) *PagedFactory {
	return &PagedFactory{kind: KindBTree, file: pagestore.NewMemFile(pageSize), slots: slots}
}

// NewMVBTFactory creates a factory of MVBT-shadowed indexes.
func NewMVBTFactory(pageSize, slots int) *PagedFactory {
	return &PagedFactory{kind: KindMVBT, file: pagestore.NewMemFile(pageSize), slots: slots}
}

// New implements Factory. Given records, a B+-tree is built bottom-up from
// them instead of descending from the root once per record; an MVBT
// inserts them one version each.
func (f *PagedFactory) New(recs []Record) (*Index, error) {
	s := &shadow{kind: f.kind, buf: pagestore.NewBufferWithLedger(f.file, f.slots, &f.ledger)}
	var err error
	switch {
	case f.kind == KindMVBT:
		if s.mv, err = mvbt.New(s.buf); err == nil {
			for _, r := range recs {
				if err = s.put(r); err != nil {
					break
				}
			}
		}
	case recs == nil:
		s.bt, err = btree.New(s.buf)
	default:
		keys := make([]int64, len(recs))
		vals := make([]btree.Value, len(recs))
		for i, r := range recs {
			keys[i] = r.Ts
			vals[i] = btree.Value{r.Te, r.Agg}
		}
		s.bt, err = btree.NewBulk(s.buf, keys, vals)
	}
	if err != nil {
		return nil, err
	}
	x := newIndex(recs)
	x.pages = s
	return x, nil
}

// Ledger implements Factory.
func (f *PagedFactory) Ledger() *pagestore.Ledger { return &f.ledger }

// FoldAcct implements Factory.
func (f *PagedFactory) FoldAcct(a *pagestore.IOAcct) {
	probes[f.kind].Add(a.Probes)
	f.ledger.AddAcct(a)
}
