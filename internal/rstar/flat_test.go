package rstar

import (
	"math/rand"
	"testing"
	"unsafe"

	"tartree/internal/geo"
)

// Freeze → Thaw must reproduce the pointer tree exactly: same structure,
// same entries, valid parent/slot caches.
func TestFreezeThawRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cfg := Config{Dims: 2, Capacity: 12}
	tr := New(cfg)
	for i := 0; i < 2500; i++ {
		if err := tr.Insert(Entry{Rect: pt(r.Float64()*100, r.Float64()*100), Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	f := tr.Freeze()
	if f.Count != tr.Len() || f.Height != tr.Height() || f.Dims != tr.Dims() {
		t.Fatalf("frozen header: count=%d height=%d dims=%d", f.Count, f.Height, f.Dims)
	}
	leaves, internals := tr.NodeCount()
	if len(f.Nodes) != leaves+internals {
		t.Fatalf("frozen %d nodes, pointer tree has %d", len(f.Nodes), leaves+internals)
	}
	th, err := f.Thaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Check(); err != nil {
		t.Fatal(err)
	}
	if th.Len() != tr.Len() || th.Height() != tr.Height() {
		t.Fatalf("thawed len=%d height=%d", th.Len(), th.Height())
	}
	// Re-freezing the thawed tree must reproduce the same canonical form.
	f2 := th.Freeze()
	if len(f2.Nodes) != len(f.Nodes) || len(f2.Items) != len(f.Items) {
		t.Fatal("refreeze changed shape")
	}
	for i := range f.Nodes {
		if f.Nodes[i] != f2.Nodes[i] {
			t.Fatalf("node %d differs after thaw+refreeze", i)
		}
	}
	for i := range f.Items {
		if f.Items[i] != f2.Items[i] || f.Rects[i] != f2.Rects[i] || f.Children[i] != f2.Children[i] {
			t.Fatalf("entry %d differs after thaw+refreeze", i)
		}
	}
	// The thawed tree stays mutable.
	for i := 0; i < 200; i++ {
		if err := th.Insert(Entry{Rect: pt(r.Float64()*100, r.Float64()*100), Item: Item(10000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestFreezeEmptyTree(t *testing.T) {
	cfg := Config{Dims: 2, Capacity: 8}
	f := New(cfg).Freeze()
	if len(f.Nodes) != 1 || f.Count != 0 {
		t.Fatalf("nodes=%d count=%d", len(f.Nodes), f.Count)
	}
	th, err := f.Thaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th.Len() != 0 || th.Height() != 1 {
		t.Fatalf("len=%d height=%d", th.Len(), th.Height())
	}
}

// Thaw must reject corrupt structures instead of panicking or recursing
// forever: cycles, out-of-bounds entry runs, double references, level skew.
func TestThawRejectsCorruptStructures(t *testing.T) {
	cfg := Config{Dims: 2, Capacity: 8}
	leaf := func() FlatNode { return FlatNode{Level: 0, Start: 0, Count: 1} }
	cases := map[string]*FlatTree{
		"no nodes": {Dims: 2, Height: 1},
		"entry run out of bounds": {
			Dims: 2, Height: 1, Count: 2,
			Nodes: []FlatNode{{Level: 0, Start: 0, Count: 5}},
			Rects: make([]geo.Rect, 2), Children: []int32{-1, -1}, Items: []int64{1, 2}, Data: make([]any, 2),
		},
		"self cycle": {
			Dims: 2, Height: 2, Count: 1,
			Nodes: []FlatNode{{Level: 1, Start: 0, Count: 1}},
			Rects: make([]geo.Rect, 1), Children: []int32{0}, Items: []int64{0}, Data: make([]any, 1),
		},
		"double reference": {
			Dims: 2, Height: 2, Count: 2,
			Nodes: []FlatNode{{Level: 1, Start: 0, Count: 2}, leaf()},
			Rects: make([]geo.Rect, 3), Children: []int32{1, 1, -1}, Items: []int64{0, 0, 7}, Data: make([]any, 3),
		},
		"level skew": {
			Dims: 2, Height: 3, Count: 1,
			Nodes: []FlatNode{{Level: 2, Start: 0, Count: 1}, {Level: 0, Start: 1, Count: 1}},
			Rects: make([]geo.Rect, 2), Children: []int32{1, -1}, Items: []int64{0, 7}, Data: make([]any, 2),
		},
		"slab length mismatch": {
			Dims: 2, Height: 1, Count: 1,
			Nodes: []FlatNode{leaf()},
			Rects: make([]geo.Rect, 1), Children: []int32{-1, -1}, Items: []int64{1}, Data: make([]any, 1),
		},
		"child in leaf": {
			Dims: 2, Height: 2, Count: 1,
			Nodes: []FlatNode{{Level: 0, Start: 0, Count: 1}, leaf()},
			Rects: make([]geo.Rect, 2), Children: []int32{1, -1}, Items: []int64{0, 1}, Data: make([]any, 2),
		},
	}
	for name, f := range cases {
		if _, err := f.Thaw(cfg); err == nil {
			t.Errorf("%s: corrupt structure accepted", name)
		}
	}
}

// footprints estimates the heap each layout holds: node structs plus entry
// arrays for the pointer tree, the slabs for the flat one. Augmentation
// data is excluded from both — the layouts share it.
func footprints(tr *Tree, f *FlatTree) (pointer, flat int64) {
	tr.VisitNodes(func(n *Node) bool {
		pointer += int64(unsafe.Sizeof(*n)) + int64(cap(n.Entries))*int64(unsafe.Sizeof(Entry{}))
		return true
	})
	flat = int64(unsafe.Sizeof(*f)) +
		int64(cap(f.Nodes))*int64(unsafe.Sizeof(FlatNode{})) +
		int64(cap(f.Rects))*int64(unsafe.Sizeof(geo.Rect{})) +
		int64(cap(f.Children))*4 + int64(cap(f.Items))*8 +
		int64(cap(f.Data))*int64(unsafe.Sizeof(any(nil)))
	return pointer, flat
}

func TestFlatBytesAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr := New(Config{Dims: 2, Capacity: 16})
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(Entry{Rect: pt(r.Float64()*10, r.Float64()*10), Item: Item(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pointer, flat := footprints(tr, tr.Freeze())
	// The flat slabs drop Parent pointers and per-node slice headers, so
	// they should be strictly smaller than the pointer representation.
	if flat <= 0 || flat >= pointer {
		t.Errorf("flat %d B not in (0, pointer %d B)", flat, pointer)
	}
}
