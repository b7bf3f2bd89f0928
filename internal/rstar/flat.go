package rstar

import (
	"fmt"

	"tartree/internal/geo"
)

// FlatNode is one node of the frozen layout: a (level, start, count) triple
// addressing a contiguous run of entries in the FlatTree slabs. There are
// no Parent pointers and no per-node entry slices — offsets replace both.
type FlatNode struct {
	Level int32
	Start int32 // first entry index in the entry slabs
	Count int32 // number of entries
}

// FlatTree is a frozen, read-only compilation of a Tree: every node lives
// in one []FlatNode slab addressed by int32 ids (the root is node 0), and
// the entries of all nodes live in parallel struct-of-arrays slabs indexed
// by entry id. The garbage collector sees five slices instead of a pointer
// graph proportional to the POI count, node expansion reads contiguous
// memory, and the layout maps 1:1 onto the snapshot-v3 on-disk sections.
//
// A FlatTree is immutable: mutation goes through a pointer Tree (the one
// it was compiled from, or a Thaw of it) followed by a re-Freeze. Child
// node ids are always greater than their parent's id (the compiler emits
// parents first), which Validate exploits to reject cyclic or aliased
// structures decoded from untrusted snapshots.
type FlatTree struct {
	Dims   int
	Height int // number of levels; 1 = the root is a leaf
	Count  int // number of items (leaf entries)

	Nodes []FlatNode

	// Entry slabs, all of equal length, indexed by entry id.
	Rects    []geo.Rect
	Children []int32 // child node id; -1 for leaf entries
	Items    []int64 // POI id for leaf entries; 0 otherwise
	Data     []any   // augmentation handle (the TAR-tree's TIA)
}

// Freeze compiles the tree into its frozen flat form. The tree is only
// read; the result shares the per-entry Data handles (the TAR-tree's TIAs,
// which check-in flushes then reach through the Data slab), while
// rectangles are copied by value. Node 0 is the root; a node's children
// appear in its entries' order.
func (t *Tree) Freeze() *FlatTree {
	nodes, entries := 0, 0
	t.VisitNodes(func(n *Node) bool {
		nodes++
		entries += len(n.Entries)
		return true
	})
	f := &FlatTree{
		Dims:     t.cfg.Dims,
		Height:   t.height,
		Count:    t.size,
		Nodes:    make([]FlatNode, 0, nodes),
		Rects:    make([]geo.Rect, 0, entries),
		Children: make([]int32, 0, entries),
		Items:    make([]int64, 0, entries),
		Data:     make([]any, 0, entries),
	}
	var compile func(n *Node) int32
	compile = func(n *Node) int32 {
		id := int32(len(f.Nodes))
		start := int32(len(f.Rects))
		f.Nodes = append(f.Nodes, FlatNode{Level: int32(n.Level), Start: start, Count: int32(len(n.Entries))})
		for _, e := range n.Entries {
			f.Rects = append(f.Rects, e.Rect)
			f.Children = append(f.Children, -1)
			f.Items = append(f.Items, int64(e.Item))
			f.Data = append(f.Data, e.Data)
		}
		for i, e := range n.Entries {
			if e.Child != nil {
				f.Children[start+int32(i)] = compile(e.Child)
			}
		}
		return id
	}
	compile(t.root)
	return f
}

// Root returns the root node (node 0).
func (f *FlatTree) Root() FlatNode { return f.Nodes[0] }

// NodeCount returns the number of nodes, split into leaves and internals.
func (f *FlatTree) NodeCount() (leaves, internals int) {
	for _, n := range f.Nodes {
		if n.Level == 0 {
			leaves++
		} else {
			internals++
		}
	}
	return leaves, internals
}

// Validate reports whether f is a structure Thaw can rebuild, walking it
// from the root: the entry slabs agree on length, every entry range is in
// bounds, child ids strictly increase (the Freeze compiler's parents-first
// order, which rules out cycles), no node is referenced twice, child
// entries sit only in internal nodes and leaf entries only in leaves,
// child levels descend by one, and the root's level is Height−1. A
// FlatTree decoded from a corrupted snapshot produces an error, never a
// panic or runaway recursion.
func (f *FlatTree) Validate() error {
	if len(f.Nodes) == 0 {
		return fmt.Errorf("rstar: frozen tree has no nodes")
	}
	ne := len(f.Rects)
	if len(f.Children) != ne || len(f.Items) != ne || len(f.Data) != ne {
		return fmt.Errorf("rstar: frozen entry slabs disagree on length")
	}
	seen := make([]bool, len(f.Nodes))
	var walk func(id int32) error
	walk = func(id int32) error {
		fn := f.Nodes[id]
		if seen[id] {
			return fmt.Errorf("rstar: frozen node %d referenced twice", id)
		}
		seen[id] = true
		if fn.Count < 0 || fn.Start < 0 || int(fn.Start)+int(fn.Count) > ne {
			return fmt.Errorf("rstar: frozen node %d entries [%d,%d) out of bounds", id, fn.Start, fn.Start+fn.Count)
		}
		for ei := fn.Start; ei < fn.Start+fn.Count; ei++ {
			cid := f.Children[ei]
			if cid < 0 {
				if fn.Level > 0 {
					return fmt.Errorf("rstar: frozen internal node %d has leaf entry", id)
				}
				continue
			}
			if fn.Level == 0 {
				return fmt.Errorf("rstar: frozen leaf node %d has child entry", id)
			}
			if cid <= id || int(cid) >= len(f.Nodes) {
				return fmt.Errorf("rstar: frozen node %d child id %d out of order", id, cid)
			}
			if f.Nodes[cid].Level != fn.Level-1 {
				return fmt.Errorf("rstar: frozen child level %d under level %d", f.Nodes[cid].Level, fn.Level)
			}
			if err := walk(cid); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return err
	}
	if root := int(f.Nodes[0].Level); root != f.Height-1 {
		return fmt.Errorf("rstar: frozen root level %d != height-1 %d", root, f.Height-1)
	}
	return nil
}

// Thaw reconstructs a mutable pointer tree from the frozen form, restoring
// Parent pointers and slot caches, once Validate accepts it. The entries
// share f's Data handles. cfg must be the configuration the original tree
// was built with (dims, capacity, strategy, augmenter).
func (f *FlatTree) Thaw(cfg Config) (*Tree, error) {
	t := New(cfg)
	if cfg.Dims != f.Dims {
		return nil, fmt.Errorf("rstar: thaw dims %d != frozen dims %d", cfg.Dims, f.Dims)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var build func(id int32) *Node
	build = func(id int32) *Node {
		fn := f.Nodes[id]
		n := &Node{Level: int(fn.Level), Entries: make([]Entry, fn.Count)}
		for i := range n.Entries {
			ei := fn.Start + int32(i)
			n.Entries[i] = Entry{Rect: f.Rects[ei], Item: Item(f.Items[ei]), Data: f.Data[ei]}
			if cid := f.Children[ei]; cid >= 0 {
				c := build(cid)
				c.Parent, c.slot = n, i
				n.Entries[i].Child = c
			}
		}
		return n
	}
	t.root = build(0)
	t.height = f.Height
	t.size = f.Count
	return t, nil
}
