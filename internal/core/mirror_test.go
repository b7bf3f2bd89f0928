package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"tartree/internal/geo"
	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// TestMirrorIsTheIndex: the index a query probes is the records that ingest,
// grouping and snapshots read, and they stay what an independent per-POI,
// per-epoch tally says they are after build, ingest into new and old epochs,
// deletions that dispose internal entries, both rebuilds and a v3 round
// trip. On a paged factory every entry's page shadow — internal entries and
// the global maxima included — holds exactly its records at every stage, so
// the shadow follows Make, Extend and Dispose; on the default factory no
// index carries one.
func TestMirrorIsTheIndex(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			for _, fac := range []struct {
				name string
				new  func() tia.Factory
			}{
				{"mem", func() tia.Factory { return nil }},
				{"btree", func() tia.Factory { return tia.NewBTreeFactory(256, 10) }},
				{"mvbt", func() tia.Factory { return tia.NewMVBTFactory(1024, 10) }},
			} {
				t.Run(fac.name, func(t *testing.T) { testMirrorIsTheIndex(t, g, fac.new) })
			}
		})
	}
}

func testMirrorIsTheIndex(t *testing.T, g Grouping, factory func() tia.Factory) {
	opts := defaultOpts(g)
	opts.NodeSize = 256 // several levels, so deletions condense internal nodes
	opts.TIA = factory()
	paged := opts.TIA != nil
	tr := mustTree(t, opts)
	r := rand.New(rand.NewSource(31 + int64(g)))
	want := map[int64]map[int64]int64{} // POI → epoch start → aggregate
	for id := int64(1); id <= 400; id++ {
		want[id] = map[int64]int64{}
		var hist []tia.Record
		for ep := int64(0); ep < 12; ep++ {
			if agg := r.Int63n(4); agg > 0 {
				hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: agg})
				want[id][ep*10] = agg
			}
		}
		if err := tr.InsertPOI(POI{ID: id, X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
			t.Fatal(err)
		}
	}
	// shadowed checks that d's page shadow is there exactly when the factory
	// is paged, and then holds d's records.
	shadowed := func(stage, what string, d *tia.Index) {
		t.Helper()
		got, ok, err := d.PageRecords()
		if err != nil {
			t.Fatalf("%s: %s: page scan: %v", stage, what, err)
		}
		if ok != paged {
			t.Fatalf("%s: %s carries a shadow: %v, want %v", stage, what, ok, paged)
		}
		if ok && len(got)+len(d.Records()) > 0 && !reflect.DeepEqual(got, d.Records()) {
			t.Fatalf("%s: %s: the pages hold %v, the records %v", stage, what, got, d.Records())
		}
	}
	check := func(tr *Tree, stage string) {
		t.Helper()
		if err := tr.Check(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if tr.Len() != len(want) {
			t.Fatalf("%s: %d POIs indexed, want %d", stage, tr.Len(), len(want))
		}
		for id, epochs := range want {
			lo := r.Int63n(120)
			iv := tia.Interval{Start: lo, End: lo + 1 + r.Int63n(60)}
			var sum int64
			for ts, agg := range epochs {
				if iv.Contains(tia.Record{Ts: ts, Te: ts + 10}) {
					sum += agg
				}
			}
			got, err := tr.Aggregate(id, iv)
			if err != nil {
				t.Fatal(err)
			}
			mirror, err := tr.AggregateMirror(id, iv)
			if err != nil {
				t.Fatal(err)
			}
			if got != mirror || got != sum {
				t.Fatalf("%s: POI %d over %v: index %d, mirror %d, tally %d", stage, id, iv, got, mirror, sum)
			}
			if recs, _ := tr.History(id); len(recs) != len(epochs) {
				t.Fatalf("%s: POI %d holds %d records, tally %d", stage, id, len(recs), len(epochs))
			}
			shadowed(stage, "a POI's index", tr.pois[id].data)
		}
		shadowed(stage, "the global index", tr.global)
		ft := tr.Freeze()
		for eid, child := range ft.Children {
			if child >= 0 {
				shadowed(stage, "an internal entry's index", tiaOf(ft.Data[eid]))
			}
		}
	}
	check(tr, "build")

	for i := 0; i < 600; i++ { // new epochs and back-dated ones
		id, at := 1+r.Int63n(400), r.Int63n(160)
		if err := tr.AddCheckIn(id, at); err != nil {
			t.Fatal(err)
		}
		want[id][at/10*10]++
	}
	if err := tr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	check(tr, "ingest")

	// Deleting most POIs disposes internal entries (condense, root shrink)
	// and rebuilds others over a single remaining leaf entry: no survivor
	// may lose a record to it.
	for id := int64(1); id <= 400; id++ {
		if id%8 == 0 {
			continue
		}
		if ok, err := tr.DeletePOI(id); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
		delete(want, id)
	}
	check(tr, "DeletePOI")

	if err := tr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	check(tr, "Rebuild")
	if err := tr.RebuildBulk(); err != nil {
		t.Fatal(err)
	}
	check(tr, "RebuildBulk")

	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(&buf, factory())
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, "v3 round trip")
}

// TestSnapshotV3LoadHoldsRecordsOnce: loading a v3 image on the default
// factory keeps each TIA's records once — the decoded slice as the index's
// storage, or the columns the loader compiles from it, which release it —
// and builds no pointer R*-tree, so the loaded tree's heap stays within
// 1.3× what holds the records plus the flat layout's slabs.
func TestSnapshotV3LoadHoldsRecordsOnce(t *testing.T) {
	opts := defaultOpts(TAR3D)
	tr := mustTree(t, opts)
	r := rand.New(rand.NewSource(5))
	for id := int64(1); id <= 2500; id++ {
		hist := make([]tia.Record, 0, 150)
		for ep := int64(0); ep < 150; ep++ {
			hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: 1 + r.Int63n(50)})
		}
		if err := tr.InsertPOI(POI{ID: id, X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
			t.Fatal(err)
		}
	}
	var image bytes.Buffer
	if err := tr.SaveSnapshot(&image); err != nil {
		t.Fatal(err)
	}
	tr = nil

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	loaded, err := LoadSnapshot(bytes.NewReader(image.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	grown := int64(heap()) - int64(before)

	var recBytes int64
	count := func(d *tia.Index) { recBytes += int64(len(d.Records())) * 24 }
	count(loaded.global)
	for _, st := range loaded.pois {
		count(st.data)
	}
	l := loaded.compiled()
	flat := l.ft
	for eid, child := range flat.Children {
		if child >= 0 {
			count(tiaOf(flat.Data[eid]))
		}
	}
	// Where the columns hold the entries' records, their slab is the
	// records' share.
	if c := l.cols; c != nil {
		recBytes += int64(cap(c.cells))*4 + int64(cap(c.spans))*int64(unsafe.Sizeof(tia.Interval{}))
	}
	// The tree's own share: the layout's slabs.
	treeBytes := int64(unsafe.Sizeof(*flat)) +
		int64(cap(flat.Nodes))*int64(unsafe.Sizeof(rstar.FlatNode{})) +
		int64(cap(flat.Rects))*int64(unsafe.Sizeof(geo.Rect{})) +
		int64(cap(flat.Children))*4 + int64(cap(flat.Items))*8 +
		int64(cap(flat.Data))*int64(unsafe.Sizeof(any(nil)))
	bound := recBytes*13/10 + treeBytes
	t.Logf("heap grew %d B loading %d B of records (bound %d B)", grown, recBytes, bound)
	if grown > bound {
		t.Errorf("heap grew %d B, more than 1.3 × %d B of records + the flat layout (%d B): records or the tree are held more than once",
			grown, recBytes, bound)
	}
	runtime.KeepAlive(loaded)
}
