package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"tartree/internal/geo"
)

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(Config{Dims: 2, Capacity: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestBulkLoadRejectsInternalEntries(t *testing.T) {
	if _, err := BulkLoad(Config{Dims: 2, Capacity: 10},
		[]Entry{{Child: &Node{}}}); err == nil {
		t.Fatal("internal entry accepted")
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 9, 10, 11, 100, 1234, 5000} {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Rect: pt(r.Float64()*100, r.Float64()*100), Item: Item(i)}
		}
		tr, err := BulkLoad(Config{Dims: 2, Capacity: 10}, entries)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: len=%d", n, tr.Len())
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Every item findable.
		got := rangeSearch(tr, geo.Rect{Min: geo.Vector{-1, -1}, Max: geo.Vector{101, 101}})
		if len(got) != n {
			t.Fatalf("n=%d: found %d items", n, len(got))
		}
	}
}

func TestBulkLoad3D(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	entries := make([]Entry, 2000)
	for i := range entries {
		v := geo.Vector{r.Float64(), r.Float64(), r.Float64()}
		entries[i] = Entry{Rect: geo.PointRect(v), Item: Item(i)}
	}
	tr, err := BulkLoad(Config{Dims: 3, Capacity: 36}, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	q := geo.Rect{Min: geo.Vector{0.4, 0.4, 0.4}, Max: geo.Vector{0.6, 0.6, 0.6}}
	var want []Item
	for _, e := range entries {
		if e.Rect.Intersects(q, 3) {
			want = append(want, e.Item)
		}
	}
	got := rangeSearch(tr, q)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("range mismatch")
		}
	}
}

func TestBulkLoadWithAugmenter(t *testing.T) {
	aug := &countingAug{}
	r := rand.New(rand.NewSource(8))
	entries := make([]Entry, 777)
	for i := range entries {
		entries[i] = Entry{Rect: pt(r.Float64()*10, r.Float64()*10), Item: Item(i)}
	}
	tr, err := BulkLoad(Config{Dims: 2, Capacity: 8, Aug: aug}, entries)
	if err != nil {
		t.Fatal(err)
	}
	checkAug(t, tr)
	// Inserts after a bulk load keep everything consistent.
	for i := 0; i < 100; i++ {
		if err := tr.Insert(Entry{Rect: pt(r.Float64()*10, r.Float64()*10), Item: Item(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	checkAug(t, tr)
}

// Bulk-loaded trees should have tighter packing (fewer nodes) than
// incrementally built ones.
func TestBulkLoadPacksTighter(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	entries := make([]Entry, 3000)
	inc := New(Config{Dims: 2, Capacity: 20})
	for i := range entries {
		entries[i] = Entry{Rect: pt(r.Float64()*100, r.Float64()*100), Item: Item(i)}
		if err := inc.Insert(entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := BulkLoad(Config{Dims: 2, Capacity: 20}, entries)
	if err != nil {
		t.Fatal(err)
	}
	bl, bi := bulk.Freeze().NodeCount()
	il, ii := inc.Freeze().NodeCount()
	if bl+bi >= il+ii {
		t.Errorf("bulk %d nodes >= incremental %d", bl+bi, il+ii)
	}
}

// Fewer entries than MinFill must still produce a valid (single-node) tree.
func TestBulkLoadFewerThanMinFill(t *testing.T) {
	cfg := Config{Dims: 2, Capacity: 10, MinFill: 4}
	for n := 1; n < 4; n++ {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Rect: pt(float64(i), float64(i)), Item: Item(i)}
		}
		tr, err := BulkLoad(cfg, entries)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n || tr.Height() != 1 {
			t.Fatalf("n=%d: len=%d height=%d", n, tr.Len(), tr.Height())
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// All-duplicate coordinates exercise the tie paths of the stable sort and
// the min-fill tail merging; every item must remain findable.
func TestBulkLoadDuplicateCoordinates(t *testing.T) {
	for _, n := range []int{7, 64, 1000} {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Rect: pt(5, 5), Item: Item(i)}
		}
		tr, err := BulkLoad(Config{Dims: 2, Capacity: 10}, entries)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := rangeSearch(tr, geo.Rect{Min: geo.Vector{4, 4}, Max: geo.Vector{6, 6}})
		if len(got) != n {
			t.Fatalf("n=%d: found %d items", n, len(got))
		}
	}
}

// The parallel stable merge sort must equal sort.SliceStable for any worker
// count, including on heavy tie loads.
func TestParallelStableSortMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, n := range []int{0, 1, 100, parallelSortMin, 3 * parallelSortMin, 50000} {
		base := make([]Entry, n)
		for i := range base {
			// Coarse buckets force many ties so stability is observable.
			x := float64(r.Intn(20))
			base[i] = Entry{Rect: pt(x, x), Item: Item(i)}
		}
		want := append([]Entry(nil), base...)
		sort.SliceStable(want, func(i, j int) bool {
			return want[i].Rect.Min[0]+want[i].Rect.Max[0] < want[j].Rect.Min[0]+want[j].Rect.Max[0]
		})
		for _, workers := range []int{1, 2, 3, 4, 16} {
			got := append([]Entry(nil), base...)
			sortByAxis(got, 0, workers)
			for i := range got {
				if got[i].Item != want[i].Item {
					t.Fatalf("n=%d workers=%d: order diverges at %d", n, workers, i)
				}
			}
		}
	}
}

// Worker-count invariance: 1/4/16 workers build identical trees (compared
// via the canonical frozen form).
func TestBulkLoadWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	entries := make([]Entry, 20000)
	for i := range entries {
		// Duplicate-heavy coordinates make any instability visible.
		x, y := float64(r.Intn(50)), float64(r.Intn(50))
		entries[i] = Entry{Rect: pt(x, y), Item: Item(i)}
	}
	var want *FlatTree
	for _, workers := range []int{1, 4, 16} {
		tr, err := BulkLoadWorkers(Config{Dims: 2, Capacity: 20}, append([]Entry(nil), entries...), workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		f := tr.Freeze()
		if want == nil {
			want = f
			continue
		}
		if len(f.Nodes) != len(want.Nodes) || len(f.Items) != len(want.Items) {
			t.Fatalf("workers=%d: shape differs (%d/%d nodes, %d/%d entries)",
				workers, len(f.Nodes), len(want.Nodes), len(f.Items), len(want.Items))
		}
		for i := range f.Nodes {
			if f.Nodes[i] != want.Nodes[i] {
				t.Fatalf("workers=%d: node %d differs", workers, i)
			}
		}
		for i := range f.Items {
			if f.Items[i] != want.Items[i] || f.Rects[i] != want.Rects[i] || f.Children[i] != want.Children[i] {
				t.Fatalf("workers=%d: entry %d differs", workers, i)
			}
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	entries := make([]Entry, 50000)
	for i := range entries {
		entries[i] = Entry{Rect: pt(r.Float64()*1000, r.Float64()*1000), Item: Item(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(Config{Dims: 2, Capacity: 50}, entries); err != nil {
			b.Fatal(err)
		}
	}
}
