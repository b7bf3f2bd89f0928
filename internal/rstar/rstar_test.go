package rstar

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tartree/internal/geo"
)

func pt(x, y float64) geo.Rect { return geo.PointRect(geo.Vector{x, y}) }

func newTree(capacity int) *Tree {
	return New(Config{Dims: 2, Capacity: capacity})
}

func TestInsertSmall(t *testing.T) {
	tr := newTree(8)
	for i := 0; i < 5; i++ {
		if err := tr.Insert(Entry{Rect: pt(float64(i), 0), Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 5 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCausesSplits(t *testing.T) {
	tr := newTree(8)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		if err := tr.Insert(Entry{Rect: pt(r.Float64()*100, r.Float64()*100), Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, want >= 3", tr.Height())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	leaves, internals := tr.Freeze().NodeCount()
	if leaves == 0 || internals == 0 {
		t.Errorf("nodes = %d/%d", leaves, internals)
	}
}

// rangeSearch is a reference traversal for tests.
func rangeSearch(t *Tree, q geo.Rect) []Item {
	var out []Item
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, e := range n.Entries {
			if !e.Rect.Intersects(q, t.Dims()) {
				continue
			}
			if e.Child == nil {
				out = append(out, e.Item)
			} else {
				walk(e.Child)
			}
		}
	}
	walk(t.Root())
	return out
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	tr := newTree(12)
	r := rand.New(rand.NewSource(17))
	type obj struct {
		rect geo.Rect
		item Item
	}
	var objs []obj
	for i := 0; i < 800; i++ {
		a := geo.Vector{r.Float64() * 100, r.Float64() * 100}
		b := geo.Vector{a[0] + r.Float64()*5, a[1] + r.Float64()*5}
		rect := geo.Rect{Min: a, Max: b}
		objs = append(objs, obj{rect, Item(i)})
		if err := tr.Insert(Entry{Rect: rect, Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		a := geo.Vector{r.Float64() * 100, r.Float64() * 100}
		b := geo.Vector{a[0] + r.Float64()*20, a[1] + r.Float64()*20}
		qr := geo.Rect{Min: a, Max: b}
		got := rangeSearch(tr, qr)
		var want []Item
		for _, o := range objs {
			if o.rect.Intersects(qr, 2) {
				want = append(want, o.item)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d items, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: mismatch at %d", q, i)
			}
		}
	}
}

// nnEntry is one queue element of knn, the reference best-first kNN.
type nnEntry struct {
	dist float64
	e    Entry
}

func knn(t *Tree, q geo.Vector, k int) []Item {
	var pq []nnEntry // unordered; the nearest element is found by scanning
	push := func(entries []Entry) {
		for _, e := range entries {
			pq = append(pq, nnEntry{geo.MinDist(q, e.Rect, t.Dims()), e})
		}
	}
	push(t.Root().Entries)
	var out []Item
	for len(pq) > 0 && len(out) < k {
		best := 0
		for i := range pq {
			if pq[i].dist < pq[best].dist {
				best = i
			}
		}
		ne := pq[best]
		pq[best] = pq[len(pq)-1]
		pq = pq[:len(pq)-1]
		if ne.e.Child == nil {
			out = append(out, ne.e.Item)
			continue
		}
		push(ne.e.Child.Entries)
	}
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	tr := newTree(16)
	r := rand.New(rand.NewSource(23))
	pts := make([]geo.Vector, 1000)
	for i := range pts {
		pts[i] = geo.Vector{r.Float64() * 100, r.Float64() * 100}
		tr.Insert(Entry{Rect: geo.PointRect(pts[i]), Item: Item(i)})
	}
	for trial := 0; trial < 30; trial++ {
		q := geo.Vector{r.Float64() * 100, r.Float64() * 100}
		k := 1 + r.Intn(20)
		got := knn(tr, q, k)
		idx := make([]int, len(pts))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return geo.Dist(q, pts[idx[a]], 2) < geo.Dist(q, pts[idx[b]], 2)
		})
		for i := 0; i < k; i++ {
			// Compare distances (ties can reorder items).
			gd := geo.Dist(q, pts[got[i]], 2)
			wd := geo.Dist(q, pts[idx[i]], 2)
			if math.Abs(gd-wd) > 1e-9 {
				t.Fatalf("trial %d k=%d pos %d: dist %v want %v", trial, k, i, gd, wd)
			}
		}
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(8)
	r := rand.New(rand.NewSource(41))
	rects := make([]geo.Rect, 400)
	for i := range rects {
		rects[i] = pt(r.Float64()*50, r.Float64()*50)
		tr.Insert(Entry{Rect: rects[i], Item: Item(i)})
	}
	// Delete a missing item.
	if ok, err := tr.Delete(rects[0], Item(9999)); err != nil || ok {
		t.Fatalf("delete missing = %v %v", ok, err)
	}
	// Delete half the items.
	for i := 0; i < 200; i++ {
		ok, err := tr.Delete(rects[i], Item(i))
		if err != nil || !ok {
			t.Fatalf("delete %d = %v %v", i, ok, err)
		}
		if i%50 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Remaining items still findable.
	for i := 200; i < 400; i++ {
		found := rangeSearch(tr, rects[i])
		ok := false
		for _, it := range found {
			if it == Item(i) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("item %d lost after deletes", i)
		}
	}
	// Delete everything.
	for i := 200; i < 400; i++ {
		if ok, _ := tr.Delete(rects[i], Item(i)); !ok {
			t.Fatalf("final delete %d failed", i)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after full delete: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestThreeDimensional(t *testing.T) {
	tr := New(Config{Dims: 3, Capacity: 10})
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 600; i++ {
		v := geo.Vector{r.Float64(), r.Float64(), r.Float64()}
		if err := tr.Insert(Entry{Rect: geo.PointRect(v), Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	q := geo.Rect{Min: geo.Vector{0.2, 0.2, 0.2}, Max: geo.Vector{0.5, 0.5, 0.5}}
	got := rangeSearch(tr, q)
	if len(got) == 0 {
		t.Error("3d range search found nothing")
	}
}

// countingAug counts hook invocations and verifies they keep a sum
// augmentation consistent: each entry's Data equals the number of items in
// its subtree.
type countingAug struct {
	makes, extends, disposes int
}

func (a *countingAug) Make(n *Node, old any) (any, error) {
	a.makes++
	sum := 0
	for _, e := range n.Entries {
		if e.Child == nil {
			sum++
		} else {
			sum += e.Data.(int)
		}
	}
	return sum, nil
}

func (a *countingAug) Extend(data any, e Entry) (any, error) {
	a.extends++
	if data == nil {
		data = 0
	}
	add := 1
	if e.Child != nil {
		// A reinserted internal entry carries its whole subtree.
		add = e.Data.(int)
	}
	return data.(int) + add, nil
}

func (a *countingAug) Dispose(data any) error {
	a.disposes++
	return nil
}

func checkAug(t *testing.T, tr *Tree) {
	t.Helper()
	var verify func(n *Node) int
	verify = func(n *Node) int {
		total := 0
		for _, e := range n.Entries {
			if e.Child == nil {
				total++
				continue
			}
			sub := verify(e.Child)
			if e.Data.(int) != sub {
				t.Fatalf("aug mismatch: entry says %d, subtree has %d", e.Data.(int), sub)
			}
			total += sub
		}
		return total
	}
	if got := verify(tr.Root()); got != tr.Len() {
		t.Fatalf("aug total = %d, len = %d", got, tr.Len())
	}
}

func TestAugmenterMaintained(t *testing.T) {
	aug := &countingAug{}
	tr := New(Config{Dims: 2, Capacity: 8, Aug: aug})
	r := rand.New(rand.NewSource(55))
	rects := make([]geo.Rect, 600)
	for i := range rects {
		rects[i] = pt(r.Float64()*100, r.Float64()*100)
		if err := tr.Insert(Entry{Rect: rects[i], Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			checkAug(t, tr)
		}
	}
	checkAug(t, tr)
	if aug.makes == 0 || aug.extends == 0 {
		t.Error("hooks never called")
	}
	// Deletions must keep the augmentation consistent too.
	for i := 0; i < 300; i++ {
		if ok, err := tr.Delete(rects[i], Item(i)); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
		if i%60 == 0 {
			checkAug(t, tr)
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkAug(t, tr)
}

// customStrategy groups by x-coordinate only, to prove strategies plug in.
type customStrategy struct{}

func (customStrategy) ChooseSubtree(t *Tree, n *Node, e Entry) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range n.Entries {
		d := math.Abs(c.Rect.Center()[0] - e.Rect.Center()[0])
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func (customStrategy) Split(t *Tree, level int, entries []Entry) ([]Entry, []Entry) {
	s := append([]Entry(nil), entries...)
	sort.Slice(s, func(i, j int) bool { return s[i].Rect.Min[0] < s[j].Rect.Min[0] })
	mid := len(s) / 2
	return s[:mid], s[mid:]
}

func TestCustomStrategy(t *testing.T) {
	tr := New(Config{Dims: 2, Capacity: 6, Strategy: customStrategy{}})
	r := rand.New(rand.NewSource(66))
	for i := 0; i < 300; i++ {
		if err := tr.Insert(Entry{Rect: pt(r.Float64()*10, r.Float64()*10), Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(rangeSearch(tr, geo.Rect{Min: geo.Vector{-1, -1}, Max: geo.Vector{11, 11}})); got != 300 {
		t.Fatalf("full range = %d items", got)
	}
}

func TestInsertRejectsInternalEntry(t *testing.T) {
	tr := newTree(8)
	if err := tr.Insert(Entry{Rect: pt(0, 0), Child: &Node{}}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMinFillDefaults(t *testing.T) {
	tr := New(Config{Dims: 2, Capacity: 50})
	if tr.MinFill() != 20 {
		t.Errorf("minFill = %d, want 20 (40%% of 50)", tr.MinFill())
	}
	tr2 := New(Config{Dims: 2, Capacity: 50, MinFill: 10})
	if tr2.MinFill() != 10 {
		t.Errorf("explicit minFill = %d", tr2.MinFill())
	}
}

// Duplicate points stress the split logic (zero-area nodes).
func TestDuplicatePoints(t *testing.T) {
	tr := newTree(8)
	for i := 0; i < 200; i++ {
		if err := tr.Insert(Entry{Rect: pt(1, 1), Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if got := len(rangeSearch(tr, pt(1, 1))); got != 200 {
		t.Fatalf("found %d duplicates, want 200", got)
	}
}

func BenchmarkInsertUniform(b *testing.B) {
	tr := New(Config{Dims: 2, Capacity: 50})
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(Entry{Rect: pt(r.Float64()*1000, r.Float64()*1000), Item: Item(i)})
	}
}
