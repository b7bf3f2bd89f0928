package tia

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tartree/internal/pagestore"
)

// factories under test; each subtest runs against all backends.
func factories() map[string]Factory {
	return map[string]Factory{
		"mem":   NewMemFactory(),
		"btree": NewBTreeFactory(1024, 10),
		"mvbt":  NewMVBTFactory(1024, 10),
	}
}

func TestIntervalPredicates(t *testing.T) {
	r := Record{Ts: 10, Te: 20, Agg: 1}
	cases := []struct {
		iv                   Interval
		contains, intersects bool
	}{
		{Interval{10, 20}, true, true},
		{Interval{5, 25}, true, true},
		{Interval{10, 19}, false, true},
		{Interval{11, 20}, false, true},
		{Interval{0, 10}, false, false},  // touches at start, half-open
		{Interval{20, 30}, false, false}, // touches at end
		{Interval{15, 16}, false, true},  // inside the epoch
		{Interval{0, 5}, false, false},
	}
	for i, c := range cases {
		if got := c.iv.Contains(r); got != c.contains {
			t.Errorf("case %d: Contains = %v, want %v", i, got, c.contains)
		}
		if got := c.iv.Intersects(r); got != c.intersects {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.intersects)
		}
	}
}

func TestPaperExampleAggregate(t *testing.T) {
	// Table 1 / Section 3.2: POI f has aggregates 3, 5, 4 over the three
	// epochs; over [t0, tc] the aggregate is 12. Use epochs of length 1.
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			idx, err := f.New(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, agg := range []int64{3, 5, 4} {
				if err := idx.Put(Record{Ts: int64(i), Te: int64(i + 1), Agg: agg}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := idx.Aggregate(Interval{0, 3}, Contained, FuncSum, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != 12 {
				t.Errorf("aggregate over [t0,tc] = %d, want 12", got)
			}
			// Only the middle epoch is contained in [1, 2).
			if got, _ := idx.Aggregate(Interval{1, 2}, Contained, FuncSum, nil); got != 5 {
				t.Errorf("aggregate over [t1,t2) = %d, want 5", got)
			}
			// Intersection over a partial window catches neighbours.
			if got, _ := idx.Aggregate(Interval{1, 2}, Intersecting, FuncSum, nil); got != 5 {
				t.Errorf("intersecting over [1,2) = %d, want 5", got)
			}
			if got, _ := idx.Aggregate(Interval{0, 2}, Intersecting, FuncSum, nil); got != 8 {
				t.Errorf("intersecting over [0,2) = %d, want 8", got)
			}
		})
	}
}

func TestOverwrite(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			idx, _ := f.New(nil)
			idx.Put(Record{Ts: 100, Te: 200, Agg: 3})
			idx.Put(Record{Ts: 100, Te: 200, Agg: 7})
			if n := len(idx.Records()); n != 1 {
				t.Fatalf("len = %d, want 1", n)
			}
			if got, _ := idx.Aggregate(Interval{0, 1000}, Contained, FuncSum, nil); got != 7 {
				t.Errorf("aggregate = %d, want 7 (overwritten)", got)
			}
		})
	}
}

func TestRecordsSorted(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			idx, _ := f.New(nil)
			// Insert out of order for the mem backend; disk backends get
			// ascending inserts in practice, but must cope regardless.
			order := []int64{50, 10, 30, 20, 40}
			if name == "mvbt" {
				// MVBT requires non-decreasing versions; feed ascending.
				order = []int64{10, 20, 30, 40, 50}
			}
			for _, ts := range order {
				idx.Put(Record{Ts: ts, Te: ts + 10, Agg: ts})
			}
			var got []int64
			for _, r := range idx.Records() {
				got = append(got, r.Ts)
			}
			if want := []int64{10, 20, 30, 40, 50}; !reflect.DeepEqual(got, want) {
				t.Fatalf("records order = %v", got)
			}
		})
	}
}

// Property: Aggregate equals a brute-force sum over the records, for random
// epoch layouts and random query intervals, under both semantics.
func TestAggregateMatchesBruteForce(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			for trial := 0; trial < 30; trial++ {
				idx, err := f.New(nil)
				if err != nil {
					t.Fatal(err)
				}
				// Random consecutive epochs with random lengths; some zero
				// epochs skipped (non-zero aggregates only, like real TIAs).
				t0 := int64(r.Intn(100))
				ts := t0
				var recs []Record
				for i := 0; i < 50; i++ {
					te := ts + int64(1+r.Intn(20))
					if r.Intn(4) != 0 { // 3/4 of epochs have check-ins
						rec := Record{Ts: ts, Te: te, Agg: int64(1 + r.Intn(9))}
						recs = append(recs, rec)
						if err := idx.Put(rec); err != nil {
							t.Fatal(err)
						}
					}
					ts = te
				}
				for q := 0; q < 40; q++ {
					a := t0 - 10 + int64(r.Intn(int(ts-t0)+20))
					b := a + int64(r.Intn(200))
					iv := Interval{a, b}
					for _, sem := range []Semantics{Contained, Intersecting} {
						var want int64
						for _, rec := range recs {
							if match(rec, iv, sem) {
								want += rec.Agg
							}
						}
						got, err := idx.Aggregate(iv, sem, FuncSum, nil)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s trial %d iv=%v sem=%d: got %d want %d",
								name, trial, iv, sem, got, want)
						}
					}
				}
				idx.Destroy()
			}
		})
	}
}

func TestFactoryStats(t *testing.T) {
	f := NewBTreeFactory(512, 0) // unbuffered: every access is physical
	idx, err := f.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		idx.Put(Record{Ts: int64(i * 10), Te: int64(i*10 + 10), Agg: 1})
	}
	if f.Ledger().Stats().PhysicalReads == 0 {
		t.Error("expected physical reads with zero buffer slots")
	}
	built := f.Ledger().Stats()
	if _, err := idx.Aggregate(Interval{0, 1000}, Contained, FuncSum, nil); err != nil {
		t.Fatal(err)
	}
	if d := f.Ledger().Stats().Sub(built); d.PhysicalReads == 0 || d.PhysicalWrites != 0 {
		t.Errorf("aggregate should incur reads and no writes, got %+v", d)
	}
}

func TestFactoryBufferedVsUnbuffered(t *testing.T) {
	run := func(slots int) int64 {
		f := NewBTreeFactory(1024, slots)
		idx, _ := f.New(nil)
		for i := 0; i < 500; i++ {
			idx.Put(Record{Ts: int64(i * 10), Te: int64(i*10 + 10), Agg: 1})
		}
		built := f.Ledger().Stats()
		for q := 0; q < 50; q++ {
			idx.Aggregate(Interval{0, 5000}, Contained, FuncSum, nil)
		}
		return f.Ledger().Stats().Sub(built).PhysicalReads
	}
	buffered, unbuffered := run(10), run(0)
	if buffered >= unbuffered {
		t.Errorf("buffered reads (%d) should be fewer than unbuffered (%d)", buffered, unbuffered)
	}
}

func TestMaxMerge(t *testing.T) {
	dst, src := new(Index), new(Index)
	// Paper's example from Section 4.1: children {⟨t0,t1,2⟩,⟨t1,t2,2⟩,⟨t2,*,2⟩}
	// and {⟨t0,t1,2⟩,⟨t1,t2,3⟩,⟨t2,*,1⟩} give parent {2, 3, 2}.
	for _, r := range []Record{{0, 1, 2}, {1, 2, 2}, {2, 3, 2}} {
		dst.Put(r)
	}
	for _, r := range []Record{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}} {
		src.Put(r)
	}
	if err := dst.MaxMerge(src.Records()); err != nil {
		t.Fatal(err)
	}
	if want := []Record{{0, 1, 2}, {1, 2, 3}, {2, 3, 2}}; !reflect.DeepEqual(dst.Records(), want) {
		t.Fatalf("merged = %v, want %v", dst.Records(), want)
	}
	// Merging an epoch missing from dst adds it.
	dst.MaxMerge([]Record{{Ts: 5, Te: 6, Agg: 9}})
	if n := len(dst.Records()); n != 4 {
		t.Errorf("len after merge = %d, want 4", n)
	}
}

// putPerRaised is the reference MaxMerge is checked against: one Put per
// epoch of src that dst lacks or holds a smaller aggregate for.
func putPerRaised(dst *Index, src []Record) {
	for _, r := range src {
		i, ok := slices.BinarySearchFunc(dst.Records(), r.Ts, func(d Record, ts int64) int { return cmp.Compare(d.Ts, ts) })
		if !ok || r.Agg > dst.Records()[i].Agg {
			dst.Put(r)
		}
	}
}

// randomMem returns an index with a record, of random width and aggregate,
// for roughly density of the given epochs starting at offset.
func randomMem(r *rand.Rand, epochs int, density float64, offset int64) *Index {
	m := new(Index)
	for e := int64(0); e < int64(epochs); e++ {
		if r.Float64() < density {
			ts := (offset + e) * 10
			m.Put(Record{Ts: ts, Te: ts + 1 + r.Int63n(30), Agg: 1 + r.Int63n(5)})
		}
	}
	return m
}

// TestMaxMergeMemMatchesGeneric: the one-pass merge of sorted records
// leaves exactly what the generic path — one Put per raised epoch — leaves,
// tracked span included, on sparse, dense and overlapping inputs with
// epochs of unequal width.
func TestMaxMergeMemMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		density := []float64{0.05, 0.5, 1}[trial%3]
		dst := randomMem(r, r.Intn(40), density, 0)
		src := randomMem(r, r.Intn(40), []float64{1, 0.05, 0.5}[trial%3], int64(r.Intn(50))-10)
		want := &Index{recs: slices.Clone(dst.recs), maxSpan: dst.maxSpan}
		putPerRaised(want, src.recs)
		before := slices.Clone(src.recs)
		if err := dst.MaxMerge(src.recs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst.recs, want.recs) && len(dst.recs)+len(want.recs) > 0 {
			t.Fatalf("trial %d: merged %v, generic path %v", trial, dst.recs, want.recs)
		}
		if dst.maxSpan != want.maxSpan {
			t.Fatalf("trial %d: tracked span %d, generic path %d", trial, dst.maxSpan, want.maxSpan)
		}
		if !reflect.DeepEqual(src.recs, before) {
			t.Fatalf("trial %d: the merge changed its source", trial)
		}
		for i := 1; i < len(dst.recs); i++ {
			if dst.recs[i-1].Ts >= dst.recs[i].Ts {
				t.Fatalf("trial %d: merged records out of order at %d", trial, i)
			}
		}
	}
	// An index merged into itself is unchanged.
	m := randomMem(r, 30, 0.5, 0)
	same := slices.Clone(m.recs)
	if err := m.MaxMerge(m.recs); err != nil || !reflect.DeepEqual(m.recs, same) {
		t.Fatalf("self-merge: %v, %v", err, m.recs)
	}
}

// TestPagedIndexHoldsItsRecords: a paged index holds its records twice — in
// memory and on pages — and every mutation writes both. Whatever mix of
// bulk build, Put (inserts, and overwrites that raise or lower an epoch)
// and MaxMerge made it, a full scan of the pages equals Records() record
// for record, and both equal an in-memory index fed the same operations.
func TestPagedIndexHoldsItsRecords(t *testing.T) {
	for name, f := range map[string]Factory{"btree": NewBTreeFactory(256, 4), "mvbt": NewMVBTFactory(1024, 4)} {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			for trial := 0; trial < 60; trial++ {
				var init []Record // nil two times in three: an empty index
				if trial%3 == 0 {
					init = randomMem(r, 80, 0.6, 0).recs
				}
				x, err := f.New(slices.Clone(init))
				if err != nil {
					t.Fatal(err)
				}
				model := newIndex(slices.Clone(init))
				for op := 0; op <= 40; op++ {
					got, paged, err := x.PageRecords()
					if err != nil || !paged {
						t.Fatalf("trial %d: page scan: %v, shadow %v", trial, err, paged)
					}
					if len(got)+len(x.Records()) > 0 && !reflect.DeepEqual(got, x.Records()) {
						t.Fatalf("trial %d, after %d operations: the pages hold %v, Records() %v", trial, op, got, x.Records())
					}
					if len(got)+len(model.recs) > 0 && !reflect.DeepEqual(got, model.recs) {
						t.Fatalf("trial %d, after %d operations: the pages hold %v, the model %v", trial, op, got, model.recs)
					}
					if r.Intn(3) == 0 {
						src := randomMem(r, r.Intn(60), []float64{0.05, 0.5, 1}[op%3], int64(r.Intn(60))-10).recs
						err = x.MaxMerge(src)
						putPerRaised(model, src)
					} else {
						ts := int64(r.Intn(100)-10) * 10
						rec := Record{Ts: ts, Te: ts + 1 + r.Int63n(30), Agg: 1 + r.Int63n(5)}
						err = x.Put(rec)
						model.Put(rec)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := x.Destroy(); err != nil || len(x.Records()) != 0 {
					t.Fatalf("trial %d: destroy: %v, %d records left", trial, err, len(x.Records()))
				}
			}
		})
	}
}

func TestDestroyMem(t *testing.T) {
	m := new(Index)
	m.Put(Record{0, 1, 5})
	if err := m.Destroy(); err != nil {
		t.Fatal(err)
	}
	if len(m.Records()) != 0 {
		t.Error("destroy should clear records")
	}
}

func TestAggregateFuncMax(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			idx, _ := f.New(nil)
			for i, agg := range []int64{3, 9, 4, 7} {
				idx.Put(Record{Ts: int64(i * 10), Te: int64(i*10 + 10), Agg: agg})
			}
			if got, _ := idx.Aggregate(Interval{Start: 0, End: 40}, Contained, FuncMax, nil); got != 9 {
				t.Errorf("max over all = %d, want 9", got)
			}
			if got, _ := idx.Aggregate(Interval{Start: 20, End: 40}, Contained, FuncMax, nil); got != 7 {
				t.Errorf("max over tail = %d, want 7", got)
			}
			// Empty match: max of nothing is 0.
			if got, _ := idx.Aggregate(Interval{Start: 100, End: 200}, Contained, FuncMax, nil); got != 0 {
				t.Errorf("empty max = %d", got)
			}
			s1, _ := idx.Aggregate(Interval{Start: 0, End: 40}, Contained, FuncSum, nil)
			s2, _ := idx.Aggregate(Interval{Start: 0, End: 40}, Contained, FuncSum, nil)
			if s1 != s2 || s1 != 23 {
				t.Errorf("sum = %d/%d, want 23", s1, s2)
			}
		})
	}
}

// TestProbeCountsPerBackend checks that every backend's Aggregate
// increments its own probe counter (the per-backend totals exported as
// tia_probes_total metrics).
func TestProbeCountsPerBackend(t *testing.T) {
	iv := Interval{Start: 0, End: 100}
	backends := []struct {
		kind BackendKind
		f    Factory
	}{
		{KindMem, NewMemFactory()},
		{KindBTree, NewBTreeFactory(256, 4)},
		{KindMVBT, NewMVBTFactory(1024, 4)},
	}
	for _, b := range backends {
		idx, err := b.f.New(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Put(Record{Ts: 10, Te: 20, Agg: 3}); err != nil {
			t.Fatal(err)
		}
		before := ProbeCount(b.kind)
		for i := 0; i < 3; i++ {
			if _, err := idx.Aggregate(iv, Contained, FuncSum, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := ProbeCount(b.kind) - before; got != 3 {
			t.Errorf("%v: probe delta = %d, want 3", b.kind, got)
		}
	}
	if ProbeCount(BackendKind(99)) != 0 {
		t.Error("out-of-range kind should read 0")
	}
}

// TestFactoryLedger checks the factory's books: unowned traffic shows at
// once, a probe charged to an acct only after FoldAcct, and every event
// lands in the backend's component.
func TestFactoryLedger(t *testing.T) {
	for _, tc := range []struct {
		f    Factory
		kind BackendKind
		comp pagestore.Component
	}{
		{NewBTreeFactory(256, 4), KindBTree, pagestore.CompTIABTree},
		{NewMVBTFactory(1024, 4), KindMVBT, pagestore.CompTIAMVBT},
	} {
		ledger := tc.f.Ledger()
		var idxs []*Index
		for i := 0; i < 2; i++ {
			idx, err := tc.f.New(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Put(Record{Ts: 0, Te: 10, Agg: 1}); err != nil {
				t.Fatal(err)
			}
			idxs = append(idxs, idx)
		}
		built := ledger.Breakdown()
		if built.Component(tc.comp).LogicalWrites == 0 {
			t.Errorf("%v: build writes not in the ledger: %+v", tc.kind, ledger.Stats())
		}
		var io pagestore.IOBreakdown
		acct := pagestore.IOAcct{IO: &io}
		probes := ProbeCount(tc.kind)
		for _, idx := range idxs {
			if _, err := idx.Aggregate(Interval{Start: 0, End: 10}, Contained, FuncSum, &acct); err != nil {
				t.Fatal(err)
			}
		}
		if ledger.Breakdown() != built || ProbeCount(tc.kind) != probes {
			t.Errorf("%v: an owned probe reached the shared books before the fold", tc.kind)
		}
		want := acct.Stats
		tc.f.FoldAcct(&acct)
		got := ledger.Breakdown().Sub(built)
		if cell := got.Component(tc.comp); got.Total() != want || cell.Hits+cell.Misses != want.LogicalReads || want.LogicalReads == 0 {
			t.Errorf("%v: the ledger gained %+v, the acct held %+v", tc.kind, got.Total(), want)
		}
		if d := ProbeCount(tc.kind) - probes; d != 2 {
			t.Errorf("%v: probe totals gained %d, want 2", tc.kind, d)
		}
	}
	if f := NewMemFactory(); f.Ledger().Stats() != (pagestore.Stats{}) {
		t.Error("the memory factory's ledger is not empty")
	}
}

// TestBTreeFactoryNewBulk: the bulk-built disk TIA must answer exactly like
// one fed the same records through Put.
func TestBTreeFactoryNewBulk(t *testing.T) {
	f := NewBTreeFactory(256, 10)
	recs := make([]Record, 300)
	ts := int64(-1000)
	for i := range recs {
		ts += int64(1 + i%7)
		recs[i] = Record{Ts: ts, Te: ts + 5, Agg: int64(i % 13)}
	}
	bulk, err := f.New(slices.Clone(recs))
	if err != nil {
		t.Fatal(err)
	}
	put, err := f.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := put.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(bulk.Records(), put.Records()) {
		t.Fatalf("records %v != %v", bulk.Records(), put.Records())
	}
	for _, sem := range []Semantics{Contained, Intersecting} {
		for _, iv := range []Interval{{-1000, 2000}, {0, 100}, {recs[10].Ts, recs[200].Te}} {
			a, err := bulk.Aggregate(iv, sem, FuncSum, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := put.Aggregate(iv, sem, FuncSum, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("sem %v iv %v: %d != %d", sem, iv, a, b)
			}
		}
	}
	// Mutable after bulk build (internal entries overwrite epochs).
	if err := bulk.Put(Record{Ts: recs[0].Ts, Te: recs[0].Te, Agg: 99}); err != nil {
		t.Fatal(err)
	}
	v, err := bulk.Aggregate(Interval{recs[0].Ts, recs[0].Te}, Contained, FuncSum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("overwrite lost: %d", v)
	}
	// Empty bulk build works.
	empty, err := f.New([]Record{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := empty.Aggregate(Interval{-1000, 2000}, Contained, FuncSum, nil); err != nil || v != 0 {
		t.Fatalf("empty aggregate %d, %v", v, err)
	}
}

// TestDestroyedIndexIsReleased: a factory keeps nothing of an index once it
// is destroyed — every rebuilt internal entry and every deleted POI destroys
// one, for the life of the process.
func TestDestroyedIndexIsReleased(t *testing.T) {
	f := NewBTreeFactory(256, 10)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			idx, err := f.New(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Put(Record{Ts: int64(i), Te: int64(i) + 10, Agg: 1}); err != nil {
				t.Fatal(err)
			}
			if err := idx.Destroy(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle(100) // the page file reaches its steady size
	before := heap()
	cycle(20000)
	if after := heap(); after > before+1<<20 {
		t.Errorf("20000 destroyed indexes left %d KiB on the heap, want < 1 MiB", (after-before)>>10)
	}
	runtime.KeepAlive(f)
}
