package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tartree/internal/pagestore"
)

// The reference the in-place read path is checked against: the lookups and
// scans as they were written over decoded nodes.

func refGet(t *Tree, key int64) (Value, bool, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.readNode(id)
		if err != nil {
			return Value{}, false, err
		}
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		id = n.children[i]
	}
	n, err := t.readNode(id)
	if err != nil {
		return Value{}, false, err
	}
	if i := search(n.keys, key); i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true, nil
	}
	return Value{}, false, nil
}

type pair struct {
	k int64
	v Value
}

// refScan returns the pairs of [lo, hi] and the number of pages the walk
// read, stopping after limit pairs (limit < 0: no limit).
func refScan(t *Tree, lo, hi int64, limit int) (out []pair, pages int64, err error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.readNode(id)
		if err != nil {
			return nil, 0, err
		}
		pages++
		i := search(n.keys, lo)
		if i < len(n.keys) && n.keys[i] == lo {
			i++
		}
		id = n.children[i]
	}
	for id != pagestore.InvalidPage {
		n, err := t.readNode(id)
		if err != nil {
			return nil, 0, err
		}
		pages++
		for i := search(n.keys, lo); i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return out, pages, nil
			}
			out = append(out, pair{n.keys[i], n.vals[i]})
			if len(out) == limit {
				return out, pages, nil
			}
		}
		id = n.next
	}
	return out, pages, nil
}

// separators collects every separator key of the tree's inner nodes.
func separators(t *testing.T, tr *Tree) []int64 {
	var out []int64
	var walk func(id pagestore.PageID, level int)
	walk = func(id pagestore.PageID, level int) {
		if level == 1 {
			return
		}
		n, err := tr.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, n.keys...)
		for _, c := range n.children {
			walk(c, level-1)
		}
	}
	walk(tr.root, tr.height)
	return out
}

func leafCount(t *testing.T, tr *Tree) int {
	n := 0
	id, err := tr.findLeaf(math.MinInt64)
	for err == nil && id != pagestore.InvalidPage {
		var nd *node
		nd, err = tr.readNode(id)
		if err == nil {
			n, id = n+1, nd.next
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// checkEquivalent compares Get and Scan with the reference on a set of probe
// keys: results, order, early stop, and the page reads ledger counts (one
// per visited node); ledger is the one tr's buffer was built with.
func checkEquivalent(t *testing.T, tr *Tree, ledger *pagestore.Ledger, r *rand.Rand, keys []int64) {
	t.Helper()
	probes := append([]int64{math.MinInt64, math.MaxInt64, -1, 0, 1}, separators(t, tr)...)
	for _, k := range keys {
		probes = append(probes, k-1, k, k+1)
	}
	for _, k := range probes {
		want, wantOK, err := refGet(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		before := ledger.Stats()
		got, ok, err := tr.Get(k)
		if err != nil || ok != wantOK || got != want {
			t.Fatalf("Get(%d) = %v %v %v, reference %v %v", k, got, ok, err, want, wantOK)
		}
		if reads := ledger.Stats().Sub(before).LogicalReads; reads != int64(tr.height) {
			t.Fatalf("Get(%d) read %d pages of a height-%d tree", k, reads, tr.height)
		}
	}
	for i := 0; i < 200; i++ {
		lo, hi := probes[r.Intn(len(probes))], probes[r.Intn(len(probes))]
		limit := -1
		if r.Intn(4) == 0 {
			limit = 1 + r.Intn(5)
		}
		want, pages, err := refScan(tr, lo, hi, limit)
		if err != nil {
			t.Fatal(err)
		}
		var got []pair
		before := ledger.Stats()
		err = tr.Scan(lo, hi, func(k int64, v Value) bool {
			got = append(got, pair{k, v})
			return len(got) != limit
		})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Scan(%d, %d) limit %d = %v (%v), reference %v", lo, hi, limit, got, err, want)
		}
		if reads := ledger.Stats().Sub(before).LogicalReads; reads != pages {
			t.Fatalf("Scan(%d, %d) read %d pages, reference walked %d pages", lo, hi, reads, pages)
		}
	}
}

// TestInPlaceReadsMatchDecodedReference is the equivalence property: on
// random trees — grown by random inserts, shrunk by deletes that rebalance,
// bulk-loaded, empty, a single leaf, negative keys — the in-place lookups and
// scans return exactly what the decoded-node reference does, including for
// bounds equal to a separator key, and read exactly the same pages.
func TestInPlaceReadsMatchDecodedReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			pageSize := []int{128, 256, 1024}[seed%3]
			var ledger pagestore.Ledger
			tr, err := New(pagestore.NewBufferWithLedger(pagestore.NewMemFile(pageSize), 64, &ledger))
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, tr, &ledger, r, nil) // empty tree

			live := map[int64]bool{}
			snapshot := func() []int64 {
				out := make([]int64, 0, len(live))
				for k := range live {
					out = append(out, k)
				}
				return out
			}
			put := func(n int) {
				for i := 0; i < n; i++ {
					k := r.Int63n(4000) - 2000
					if err := tr.Put(k, Value{k * 2, r.Int63()}); err != nil {
						t.Fatal(err)
					}
					live[k] = true
				}
			}
			put(tr.leafCap - 1) // a single leaf
			if tr.height != 1 {
				t.Fatalf("height %d, want a single leaf", tr.height)
			}
			checkEquivalent(t, tr, &ledger, r, snapshot())
			put(600)
			if pageSize == 128 && (tr.height < 3 || leafCount(t, tr) < 3) {
				t.Fatalf("height %d with %d leaves: want a deep tree", tr.height, leafCount(t, tr))
			}
			checkEquivalent(t, tr, &ledger, r, snapshot())
			for _, k := range snapshot() { // delete most keys: borrows, merges, root collapse
				if r.Intn(5) > 0 {
					if _, err := tr.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(live, k)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, tr, &ledger, r, snapshot())
		})
	}
	t.Run("bulk", func(t *testing.T) {
		r := rand.New(rand.NewSource(99))
		for _, n := range []int{0, 1, 4, 5, 200, 3000} {
			keys := make([]int64, n)
			vals := make([]Value, n)
			k := int64(-1500)
			for i := range keys {
				k += 1 + r.Int63n(3)
				keys[i], vals[i] = k, Value{k + 7, r.Int63()}
			}
			var ledger pagestore.Ledger
			tr, err := NewBulk(pagestore.NewBufferWithLedger(pagestore.NewMemFile(128), 8, &ledger), keys, vals)
			if err != nil {
				t.Fatal(err)
			}
			if n == 3000 && (tr.height < 3 || leafCount(t, tr) < 3) {
				t.Fatalf("height %d: want a deep bulk-loaded tree", tr.height)
			}
			checkEquivalent(t, tr, &ledger, r, keys)
		}
	})
}

// TestInPlaceReadsConcurrent runs lookups and scans from many goroutines
// over a buffer small enough that they fault pages in under each other; run
// with -race.
func TestInPlaceReadsConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	keys := make([]int64, 2000)
	vals := make([]Value, len(keys))
	for i := range keys {
		keys[i], vals[i] = int64(i*3)-3000, Value{int64(i), r.Int63()}
	}
	tr, err := NewBulk(pagestore.NewBuffer(pagestore.NewMemFile(256), 4), keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				a := r.Intn(len(keys))
				if v, ok, err := tr.Get(keys[a]); err != nil || !ok || v != vals[a] {
					t.Errorf("Get(%d) = %v %v %v", keys[a], v, ok, err)
					return
				}
				b := a + r.Intn(120)
				if b >= len(keys) {
					b = len(keys) - 1
				}
				at := a
				err := tr.Scan(keys[a], keys[b]+1, func(k int64, v Value) bool {
					if k != keys[at] || v != vals[at] {
						t.Errorf("scan from %d: got key %d at position %d", keys[a], k, at)
						return false
					}
					at++
					return true
				})
				if err != nil || at != b+1 {
					t.Errorf("scan [%d, %d]: stopped at %d, want %d (%v)", keys[a], keys[b], at, b+1, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCorruptPages doctors pages under a healthy tree: the in-place reader
// must answer errCorrupt — never index out of range, never follow a looping
// leaf chain forever.
func TestCorruptPages(t *testing.T) {
	build := func(t *testing.T) (tr *Tree, leaves []pagestore.PageID) {
		keys := make([]int64, 40)
		vals := make([]Value, len(keys))
		for i := range keys {
			keys[i], vals[i] = int64(i*10), Value{int64(i), 1}
		}
		tr, err := NewBulk(pagestore.NewBuffer(pagestore.NewMemFile(128), 64), keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		for id, _ := tr.findLeaf(math.MinInt64); id != pagestore.InvalidPage; {
			leaves = append(leaves, id)
			n, err := tr.readNode(id)
			if err != nil {
				t.Fatal(err)
			}
			id = n.next
		}
		if tr.height < 2 || len(leaves) < 3 {
			t.Fatalf("height %d, %d leaves: want an inner root over a chain", tr.height, len(leaves))
		}
		return tr, leaves
	}
	doctor := func(t *testing.T, tr *Tree, id pagestore.PageID, edit func(page []byte)) {
		page, err := tr.buf.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		page = append([]byte(nil), page...)
		edit(page)
		if err := tr.buf.Put(id, page); err != nil {
			t.Fatal(err)
		}
	}
	setCount := func(n int) func([]byte) {
		return func(p []byte) { binary.LittleEndian.PutUint16(p[2:4], uint16(n)) }
	}
	setNext := func(id pagestore.PageID) func([]byte) {
		return func(p []byte) { binary.LittleEndian.PutUint32(p[4:8], uint32(id)) }
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, tr *Tree, leaves []pagestore.PageID)
	}{
		{"leaf count above capacity", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, l[0], setCount(tr.leafCap+1))
		}},
		{"leaf count far above the page", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, l[0], setCount(math.MaxUint16))
		}},
		{"inner count above capacity", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, tr.root, setCount(tr.innerCap+1))
		}},
		{"inner page flagged leaf", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, tr.root, func(p []byte) { p[0] |= flagLeaf })
		}},
		{"leaf page not flagged leaf", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, l[0], func(p []byte) { p[0] &^= flagLeaf })
		}},
		{"next pointing at itself", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, l[0], setNext(l[0]))
		}},
		{"empty leaf pointing at itself", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, l[0], func(p []byte) { setCount(0)(p); setNext(l[0])(p) })
		}},
		{"next closing a cycle", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, l[1], setNext(l[0]))
		}},
		{"next pointing at an inner page", func(t *testing.T, tr *Tree, l []pagestore.PageID) {
			doctor(t, tr, l[0], setNext(tr.root))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, leaves := build(t)
			c.damage(t, tr, leaves)
			visited := 0
			err := tr.Scan(math.MinInt64, math.MaxInt64, func(int64, Value) bool {
				visited++
				return true
			})
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("Scan = %v after %d pairs, want errCorrupt", err, visited)
			}
			// Lookups descend through the root to the first leaf; those that
			// meet the damaged page fail the same way, and none panics.
			if _, _, err := tr.Get(0); err != nil && !errors.Is(err, errCorrupt) {
				t.Fatalf("Get = %v", err)
			}
		})
	}
	t.Run("truncated entry run", func(t *testing.T) {
		tr, leaves := build(t)
		page, err := tr.buf.Get(leaves[0])
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := tr.pageCount(page, 1)
		if err != nil || cnt == 0 {
			t.Fatalf("healthy leaf: count %d, %v", cnt, err)
		}
		for _, n := range []int{0, 3, headerSize, headerSize + leafEntry + 5, len(page) - 1} {
			if _, err := tr.pageCount(page[:n], 1); !errors.Is(err, errCorrupt) {
				t.Fatalf("page cut to %d bytes: %v, want errCorrupt", n, err)
			}
		}
	})
}

// BenchmarkScanResident is the per-layer number for one B+-tree range read on
// resident pages, by tree height: the descent plus a scan of about twenty
// records (a TIA probe over a few months of weekly epochs).
func BenchmarkScanResident(b *testing.B) {
	for _, n := range []int{40, 1500, 60000} { // heights 1, 2, 3 at 1 KiB pages
		keys := make([]int64, n)
		vals := make([]Value, n)
		for i := range keys {
			keys[i], vals[i] = int64(i)*7, Value{int64(i)*7 + 7, int64(i % 50)}
		}
		tr, err := NewBulk(pagestore.NewBuffer(pagestore.NewMemFile(1024), n), keys, vals)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("height%d", tr.height), func(b *testing.B) {
			var sum int64
			fn := func(_ int64, v Value) bool { sum += v[1]; return true }
			if err := tr.Scan(math.MinInt64, math.MaxInt64, fn); err != nil { // fault every page in
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			los := make([]int64, 1024)
			for i := range los {
				los[i] = r.Int63n(int64(n)*7 + 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := los[i%len(los)]
				if err := tr.Scan(lo, lo+20*7-1, fn); err != nil {
					b.Fatal(err)
				}
			}
			benchSum = sum
		})
	}
}

var benchSum int64
