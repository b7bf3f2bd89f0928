// Package rstar implements an n-dimensional R*-tree (Beckmann, Kriegel,
// Schneider, Seeger; SIGMOD 1990) with two extension points the TAR-tree
// needs:
//
//   - a pluggable entry-grouping Strategy, so the same engine can run the
//     paper's three groupings — spatial extents (IND-spa and the integral
//     3D strategy, which is the R* heuristics over normalized 3-dimensional
//     boxes) and aggregate-distribution similarity (IND-agg);
//   - an Augmenter hook that maintains per-entry auxiliary data (the
//     TAR-tree attaches a temporal index to every entry) across inserts,
//     splits, forced reinserts and deletes.
//
// The tree is kept in main memory, as in the paper's experimental setup;
// query-time node accesses are counted by the callers that traverse it.
package rstar

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"tartree/internal/geo"
)

// Item identifies the object stored in a leaf entry (a POI id).
type Item int64

// Entry is one slot of a node: a bounding rectangle plus either a child
// node (internal entries) or an item (leaf entries). Data carries the
// caller's augmentation (the TAR-tree's TIA handle).
type Entry struct {
	Rect  geo.Rect
	Child *Node // nil in leaf entries
	Item  Item
	Data  any
}

// IsLeafEntry reports whether the entry stores an item rather than a child.
func (e Entry) IsLeafEntry() bool { return e.Child == nil }

// Node is an R*-tree node.
type Node struct {
	Level   int // 0 for leaf nodes
	Parent  *Node
	Entries []Entry
	// slot caches this node's entry index in Parent.Entries, maintained at
	// every entry move so the parent-path adjustments (extend/refresh on
	// every insert) resolve the child's entry in O(1) instead of scanning.
	// Meaningless on the root. The frozen flat layout (FlatTree) carries
	// neither Parent pointers nor slots — offsets replace both.
	slot int
}

// MBR returns the bounding rectangle of all entries in n.
func (n *Node) MBR(dims int) geo.Rect {
	r := geo.EmptyRect(dims)
	for _, e := range n.Entries {
		r = r.Union(e.Rect)
	}
	return r
}

// entryIndexOf returns the position of the entry pointing at child. The
// cached slot answers in O(1); the scan remains as a defensive fallback
// (Check reports any site that let the cache go stale).
func (n *Node) entryIndexOf(child *Node) int {
	if s := child.slot; s >= 0 && s < len(n.Entries) && n.Entries[s].Child == child {
		return s
	}
	for i := range n.Entries {
		if n.Entries[i].Child == child {
			child.slot = i
			return i
		}
	}
	return -1
}

// syncSlots re-caches the slot of every child after entry removals or
// reorderings shifted the remaining entries: one scan per adjust pass
// instead of one scan per upward step.
func (n *Node) syncSlots() {
	for i := range n.Entries {
		if c := n.Entries[i].Child; c != nil {
			c.slot = i
		}
	}
}

// Strategy decides how entries are grouped into nodes. The paper's Section
// 5 shows that the grouping strategy — not the search algorithm — is what
// separates the TAR-tree from its alternatives.
type Strategy interface {
	// ChooseSubtree returns the index of the entry of n to descend into
	// when inserting e. n is an internal node.
	ChooseSubtree(t *Tree, n *Node, e Entry) int
	// Split partitions entries (length Capacity+1) into two groups, each
	// with at least MinFill entries.
	Split(t *Tree, level int, entries []Entry) (left, right []Entry)
}

// Reinserter is an optional Strategy extension enabling the R*-tree forced
// reinsertion: on the first overflow at a level during an insertion, the
// returned entry indexes are removed and reinserted instead of splitting.
type Reinserter interface {
	// PickReinsert returns the indexes (into n.Entries) of entries to
	// reinsert, or nil to split instead.
	PickReinsert(t *Tree, n *Node) []int
}

// Augmenter maintains per-entry auxiliary data.
type Augmenter interface {
	// Make computes the Data of the parent entry of node n from scratch,
	// reusing or disposing old (which may be nil).
	Make(n *Node, old any) (any, error)
	// Extend updates data so it additionally covers entry e (which was
	// inserted somewhere in the subtree) and returns the new value.
	Extend(data any, e Entry) (any, error)
	// Dispose releases data Make or Extend returned, once no entry
	// references it. A leaf entry's Data came in with Insert and stays its
	// caller's: Delete does not dispose of it.
	Dispose(data any) error
}

// Config parameterizes a Tree.
type Config struct {
	// Dims is the dimensionality of the bounding rectangles (2 for IND-spa
	// and IND-agg, 3 for the integral 3D strategy).
	Dims int
	// Capacity is the maximum number of entries per node. The paper derives
	// it from the node size in bytes: 50 for 2D and 36 for 3D at 1024 B.
	Capacity int
	// MinFill is the minimum number of entries per non-root node; zero
	// selects the R*-tree default of 40% of Capacity.
	MinFill int
	// Strategy groups entries; nil selects the R* spatial heuristics.
	Strategy Strategy
	// Aug maintains per-entry data; nil disables augmentation.
	Aug Augmenter
	// ReinsertFraction is the share of entries removed on forced reinsert;
	// zero selects the R*-tree default of 30%.
	ReinsertFraction float64
	// DisableReinsert turns the R* forced reinsertion off (overflowing
	// nodes split immediately). Exposed for the ablation experiments.
	DisableReinsert bool
}

// Tree is an in-memory n-dimensional R*-tree.
type Tree struct {
	cfg           Config
	root          *Node
	height        int // number of levels; 1 = root is a leaf
	size          int // number of items
	strategy      Strategy
	aug           Augmenter
	minFill       int
	reinsertCount int
	cands         []leafCand // chooseLeaf's scratch, reused by every insert
	keys          []splitKey // Split's scratch, reused by every split
	mbrs          []geo.Rect // sweep's
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	if cfg.Dims < 1 || cfg.Dims > geo.MaxDims {
		panic(fmt.Sprintf("rstar: invalid dims %d", cfg.Dims))
	}
	if cfg.Capacity < 4 {
		panic(fmt.Sprintf("rstar: capacity %d too small", cfg.Capacity))
	}
	t := &Tree{cfg: cfg, strategy: cfg.Strategy, aug: cfg.Aug}
	if t.strategy == nil {
		t.strategy = SpatialStrategy{}
	}
	t.minFill = cfg.MinFill
	if t.minFill == 0 {
		t.minFill = cfg.Capacity * 2 / 5
	}
	if t.minFill < 1 {
		t.minFill = 1
	}
	if t.minFill > cfg.Capacity/2 {
		t.minFill = cfg.Capacity / 2
	}
	frac := cfg.ReinsertFraction
	if frac <= 0 {
		frac = 0.3
	}
	t.reinsertCount = int(float64(cfg.Capacity) * frac)
	if t.reinsertCount < 1 {
		t.reinsertCount = 1
	}
	if max := cfg.Capacity + 1 - t.minFill; t.reinsertCount > max {
		t.reinsertCount = max
	}
	t.root = &Node{Level: 0}
	t.height = 1
	return t
}

// Root returns the root node for external traversals (the kNNTA best-first
// search and the collective scheme walk the tree themselves so they can
// count node accesses).
func (t *Tree) Root() *Node { return t.root }

// Dims returns the configured dimensionality.
func (t *Tree) Dims() int { return t.cfg.Dims }

// Capacity returns the per-node entry capacity.
func (t *Tree) Capacity() int { return t.cfg.Capacity }

// MinFill returns the minimum entries per non-root node.
func (t *Tree) MinFill() int { return t.minFill }

// Len returns the number of items stored.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Insert adds a leaf entry to the tree.
func (t *Tree) Insert(e Entry) error {
	if !e.IsLeafEntry() {
		return fmt.Errorf("rstar: Insert requires a leaf entry")
	}
	t.size++
	return t.insertAtLevel(e, 0, make(map[int]bool))
}

// insertAtLevel places e at the given level, with reinsertedLevels tracking
// which levels already performed a forced reinsert during this operation.
func (t *Tree) insertAtLevel(e Entry, level int, reinserted map[int]bool) error {
	n := t.chooseNode(e, level)
	n.Entries = append(n.Entries, e)
	if e.Child != nil {
		e.Child.Parent = n
		e.Child.slot = len(n.Entries) - 1
	}
	if err := t.extendUpward(n, e); err != nil {
		return err
	}
	return t.handleOverflow(n, reinserted)
}

// chooseNode descends from the root to the node at the target level using
// the strategy's ChooseSubtree.
func (t *Tree) chooseNode(e Entry, level int) *Node {
	n := t.root
	for n.Level > level {
		i := t.strategy.ChooseSubtree(t, n, e)
		n = n.Entries[i].Child
	}
	return n
}

// extendUpward grows the rectangles and augmentation data of the entries on
// the path from n's parent entry to the root to cover e.
func (t *Tree) extendUpward(n *Node, e Entry) error {
	for p := n.Parent; p != nil; n, p = p, p.Parent {
		i := p.entryIndexOf(n)
		p.Entries[i].Rect = p.Entries[i].Rect.Union(e.Rect)
		if t.aug != nil {
			d, err := t.aug.Extend(p.Entries[i].Data, e)
			if err != nil {
				return err
			}
			p.Entries[i].Data = d
		}
	}
	return nil
}

// refreshUpward recomputes rectangles and augmentation data on the path
// from n's parent entry to the root (used after shrinking operations).
func (t *Tree) refreshUpward(n *Node) error {
	for p := n.Parent; p != nil; n, p = p, p.Parent {
		i := p.entryIndexOf(n)
		p.Entries[i].Rect = n.MBR(t.cfg.Dims)
		if t.aug != nil {
			d, err := t.aug.Make(n, p.Entries[i].Data)
			if err != nil {
				return err
			}
			p.Entries[i].Data = d
		}
	}
	return nil
}

// handleOverflow resolves capacity violations at n, possibly cascading to
// ancestors.
func (t *Tree) handleOverflow(n *Node, reinserted map[int]bool) error {
	for n != nil && len(n.Entries) > t.cfg.Capacity {
		if n.Parent != nil && !reinserted[n.Level] && !t.cfg.DisableReinsert {
			if r, ok := t.strategy.(Reinserter); ok {
				if idxs := r.PickReinsert(t, n); len(idxs) > 0 {
					reinserted[n.Level] = true
					return t.reinsertEntries(n, idxs, reinserted)
				}
			}
			reinserted[n.Level] = true
		}
		var err error
		n, err = t.splitNode(n, reinserted)
		if err != nil {
			return err
		}
	}
	return nil
}

// reinsertEntries removes the entries at idxs from n and re-inserts them.
func (t *Tree) reinsertEntries(n *Node, idxs []int, reinserted map[int]bool) error {
	sort.Sort(sort.Reverse(sort.IntSlice(idxs)))
	removed := make([]Entry, 0, len(idxs))
	for _, i := range idxs {
		removed = append(removed, n.Entries[i])
		n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
	}
	n.syncSlots()
	if err := t.refreshUpward(n); err != nil {
		return err
	}
	// Close reinsert: nearest to the node center first.
	center := n.MBR(t.cfg.Dims).Center()
	sort.Slice(removed, func(i, j int) bool {
		return geo.Dist(removed[i].Rect.Center(), center, t.cfg.Dims) <
			geo.Dist(removed[j].Rect.Center(), center, t.cfg.Dims)
	})
	for _, e := range removed {
		if err := t.insertAtLevel(e, n.Level, reinserted); err != nil {
			return err
		}
	}
	return nil
}

// splitNode splits n and returns the parent (which received a new entry and
// may itself overflow), or nil when n was the root.
func (t *Tree) splitNode(n *Node, reinserted map[int]bool) (*Node, error) {
	left, right := t.strategy.Split(t, n.Level, n.Entries)
	if len(left) < t.minFill || len(right) < t.minFill {
		return nil, fmt.Errorf("rstar: strategy split violated min fill (%d/%d)", len(left), len(right))
	}
	// Copy both halves: a strategy may return slices aliasing one array,
	// and the halves live on as two independently growing nodes.
	n.Entries = append([]Entry(nil), left...)
	nn := &Node{Level: n.Level, Entries: append([]Entry(nil), right...)}
	for i := range nn.Entries {
		if c := nn.Entries[i].Child; c != nil {
			c.Parent = nn
			c.slot = i
		}
	}
	for i := range n.Entries {
		if c := n.Entries[i].Child; c != nil {
			c.Parent = n
			c.slot = i
		}
	}

	if n.Parent == nil {
		// Root split: grow a new root.
		root := &Node{Level: n.Level + 1}
		t.root = root
		t.height++
		n.Parent, nn.Parent = root, root
		n.slot, nn.slot = 0, 1
		e1 := Entry{Rect: n.MBR(t.cfg.Dims), Child: n}
		e2 := Entry{Rect: nn.MBR(t.cfg.Dims), Child: nn}
		if t.aug != nil {
			var err error
			if e1.Data, err = t.aug.Make(n, nil); err != nil {
				return nil, err
			}
			if e2.Data, err = t.aug.Make(nn, nil); err != nil {
				return nil, err
			}
		}
		root.Entries = []Entry{e1, e2}
		return nil, nil
	}

	p := n.Parent
	i := p.entryIndexOf(n)
	p.Entries[i].Rect = n.MBR(t.cfg.Dims)
	ne := Entry{Rect: nn.MBR(t.cfg.Dims), Child: nn}
	nn.Parent = p
	nn.slot = len(p.Entries)
	if t.aug != nil {
		var err error
		if p.Entries[i].Data, err = t.aug.Make(n, p.Entries[i].Data); err != nil {
			return nil, err
		}
		if ne.Data, err = t.aug.Make(nn, nil); err != nil {
			return nil, err
		}
	}
	p.Entries = append(p.Entries, ne)
	// The ancestors above p still hold pre-split data; splitting does not
	// change coverage, so their rects and augmentation stay valid.
	return p, nil
}

// Delete removes the leaf entry with the given item whose rectangle
// intersects rect (its Data is left to the caller). It reports whether an
// entry was removed.
func (t *Tree) Delete(rect geo.Rect, item Item) (bool, error) {
	leaf, idx := t.findLeaf(t.root, rect, item)
	if leaf == nil {
		return false, nil
	}
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)
	t.size--
	if err := t.condense(leaf); err != nil {
		return false, err
	}
	return true, nil
}

func (t *Tree) findLeaf(n *Node, rect geo.Rect, item Item) (*Node, int) {
	if n.Level == 0 {
		for i, e := range n.Entries {
			if e.Item == item {
				return n, i
			}
		}
		return nil, -1
	}
	for _, e := range n.Entries {
		if e.Rect.Intersects(rect, t.cfg.Dims) {
			if leaf, i := t.findLeaf(e.Child, rect, item); leaf != nil {
				return leaf, i
			}
		}
	}
	return nil, -1
}

// condense implements the R-tree CondenseTree: underfull nodes on the path
// from leaf to root are dissolved and their entries reinserted.
func (t *Tree) condense(n *Node) error {
	type orphan struct {
		level   int
		entries []Entry
	}
	var orphans []orphan
	for n.Parent != nil {
		p := n.Parent
		if len(n.Entries) < t.minFill {
			i := p.entryIndexOf(n)
			if t.aug != nil {
				if err := t.aug.Dispose(p.Entries[i].Data); err != nil {
					return err
				}
			}
			p.Entries = append(p.Entries[:i], p.Entries[i+1:]...)
			p.syncSlots()
			orphans = append(orphans, orphan{level: n.Level, entries: n.Entries})
		} else {
			// refreshUpward fixes this node's entry and all ancestors.
			if err := t.refreshUpward(n); err != nil {
				return err
			}
			break
		}
		n = p
	}
	// Shrink the root if it is an internal node with a single child.
	for t.root.Level > 0 && len(t.root.Entries) == 1 {
		if t.aug != nil {
			if err := t.aug.Dispose(t.root.Entries[0].Data); err != nil {
				return err
			}
		}
		t.root = t.root.Entries[0].Child
		t.root.Parent = nil
		t.height--
	}
	if t.root.Level > 0 && len(t.root.Entries) == 0 {
		t.root = &Node{Level: 0}
		t.height = 1
	}
	// Reinsert orphans at their original levels (deepest first so that
	// higher-level entries find enough structure).
	reinserted := make(map[int]bool)
	for _, o := range orphans {
		for _, e := range o.entries {
			if o.level > t.root.Level {
				// The tree shrank below the orphan's level; descend into its
				// subtree and reinsert the leaf entries instead.
				if err := t.reinsertSubtree(e, reinserted); err != nil {
					return err
				}
				continue
			}
			if err := t.insertAtLevel(e, o.level, reinserted); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *Tree) reinsertSubtree(e Entry, reinserted map[int]bool) error {
	if e.Child == nil {
		return t.insertAtLevel(e, 0, reinserted)
	}
	for _, c := range e.Child.Entries {
		if err := t.reinsertSubtree(c, reinserted); err != nil {
			return err
		}
	}
	if t.aug != nil {
		return t.aug.Dispose(e.Data)
	}
	return nil
}

// VisitNodes walks every node (pre-order), stopping when fn returns false.
func (t *Tree) VisitNodes(fn func(n *Node) bool) {
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if !fn(n) {
			return false
		}
		for _, e := range n.Entries {
			if e.Child != nil {
				if !walk(e.Child) {
					return false
				}
			}
		}
		return true
	}
	walk(t.root)
}

// Check validates structural invariants; tests call it after mutations.
func (t *Tree) Check() error {
	if t.root.Parent != nil {
		return fmt.Errorf("rstar: root has a parent")
	}
	count := 0
	var walk func(n *Node, isRoot bool) error
	walk = func(n *Node, isRoot bool) error {
		if !isRoot && len(n.Entries) < t.minFill {
			return fmt.Errorf("rstar: node underfull (%d < %d) at level %d", len(n.Entries), t.minFill, n.Level)
		}
		if len(n.Entries) > t.cfg.Capacity {
			return fmt.Errorf("rstar: node overfull (%d > %d)", len(n.Entries), t.cfg.Capacity)
		}
		for i, e := range n.Entries {
			if n.Level == 0 {
				if e.Child != nil {
					return fmt.Errorf("rstar: child pointer in leaf node")
				}
				count++
				continue
			}
			if e.Child == nil {
				return fmt.Errorf("rstar: leaf entry in internal node at level %d", n.Level)
			}
			if e.Child.Parent != n {
				return fmt.Errorf("rstar: broken parent pointer at level %d", n.Level)
			}
			if e.Child.slot != i {
				return fmt.Errorf("rstar: stale slot cache at level %d (cached %d, actual %d)", n.Level, e.Child.slot, i)
			}
			if e.Child.Level != n.Level-1 {
				return fmt.Errorf("rstar: child level %d under level %d", e.Child.Level, n.Level)
			}
			mbr := e.Child.MBR(t.cfg.Dims)
			if !e.Rect.Contains(mbr, t.cfg.Dims) {
				return fmt.Errorf("rstar: entry rect %v does not contain child MBR %v", e.Rect, mbr)
			}
			if err := walk(e.Child, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rstar: item count %d != size %d", count, t.size)
	}
	if t.root.Level != t.height-1 {
		return fmt.Errorf("rstar: root level %d != height-1 %d", t.root.Level, t.height-1)
	}
	return nil
}

// ---------------------------------------------------------------------------
// R* spatial strategy

// SpatialStrategy implements the R*-tree heuristics: least-overlap /
// least-enlargement subtree choice, margin-minimizing split-axis selection,
// overlap-minimizing distribution, and forced reinsertion of the entries
// farthest from the node center. With 3-dimensional normalized boxes this
// is exactly the paper's integral 3D grouping strategy; with 2-dimensional
// boxes it is the IND-spa alternative.
type SpatialStrategy struct{}

// ChooseSubtree implements Strategy. Above the leaves it minimizes area
// enlargement; at level 1 it minimizes the growth of the child's summed
// overlap with its siblings (chooseLeaf).
func (SpatialStrategy) ChooseSubtree(t *Tree, n *Node, e Entry) int {
	dims := t.cfg.Dims
	if n.Level == 1 {
		return t.chooseLeaf(n, e)
	}
	// Minimize area enlargement, ties by area.
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range n.Entries {
		enl := c.Rect.Enlargement(e.Rect, dims)
		area := c.Rect.Area(dims)
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// leafCand is a child of a level-1 node as chooseLeaf orders them.
type leafCand struct {
	enl, area float64
	i         int
}

// less orders candidates by enlargement, then area, then index.
func (a leafCand) less(b leafCand) bool {
	if a.enl != b.enl {
		return a.enl < b.enl
	}
	if a.area != b.area {
		return a.area < b.area
	}
	return a.i < b.i
}

// chooseLeaf picks the child of level-1 node n whose summed overlap with
// its siblings grows least when it takes e, ties by enlargement, then area,
// then index. It visits the children in (enlargement, area, index) order
// and keeps the first with the least growth, so it stops at the first child
// whose growth is exactly 0: no growth is negative (below), and a later
// child with growth 0 loses the tie. Per child it skips work that cannot
// change the growth:
//   - when e already lies inside child c (grown == c), the before and after
//     sums add the same terms in the same order, so their difference is 0;
//   - a sibling o that grown does not overlap adds 0 to the after sum, and,
//     since c ⊆ grown, 0 to the before sum too; adding 0 changes no sum.
//
// Every other term is added in the old order. Since c ⊆ grown, each after
// term is at least its before term, and floating-point multiplication and
// addition are monotone, so after ≥ before. So whenever the areas and the
// overlap sums are finite, the choice and its tie-breaks are those of the
// full M² scan in index order, and the tree is the same tree.
func (t *Tree) chooseLeaf(n *Node, e Entry) int {
	dims := t.cfg.Dims
	cs := t.cands[:0]
	for i := range n.Entries {
		c := &n.Entries[i].Rect
		area := c.Area(dims)
		cs = append(cs, leafCand{enl: c.Union(e.Rect).Area(dims) - area, area: area, i: i})
	}
	t.cands = cs
	best, bestOverlap := 0, math.Inf(1)
	for k := range cs {
		// A selection step: most choices end at the first or second child.
		m := k
		for j := k + 1; j < len(cs); j++ {
			if cs[j].less(cs[m]) {
				m = j
			}
		}
		cs[k], cs[m] = cs[m], cs[k]
		i := cs[k].i
		c := &n.Entries[i].Rect
		grown := c.Union(e.Rect)
		var before, after float64
		if grown != *c {
			for j := range n.Entries {
				if j == i {
					continue
				}
				o := &n.Entries[j].Rect
				if a := grown.OverlapArea(*o, dims); a != 0 {
					before += c.OverlapArea(*o, dims)
					after += a
				}
			}
		}
		if d := after - before; d < bestOverlap {
			best, bestOverlap = i, d
			if d == 0 {
				break
			}
		}
	}
	return best
}

// Split implements the R* topological split. One sweep per sort order
// gives the MBRs of every candidate's two groups (sweep): O(M) unions an
// order, not O(M²). A union takes minima and maxima, exact in any order,
// and slices.SortFunc runs sort.Slice's pdqsort with the same comparisons
// (no coordinate is NaN), so every order, MBR, sum and tie, and so the
// split, is the quadratic scan's.
func (SpatialStrategy) Split(t *Tree, level int, entries []Entry) ([]Entry, []Entry) {
	dims := t.cfg.Dims
	m := t.minFill
	n := len(entries)
	keys := slices.Grow(t.keys[:0], 2*dims*n)[:2*dims*n]
	t.keys = keys
	order := func(o int) []splitKey { return keys[o*n : (o+1)*n] }

	// Choose the split axis: the one minimizing the total margin over all
	// candidate distributions, considering both min- and max-sorted orders.
	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < dims; axis++ {
		byMin, byMax := order(2*axis), order(2*axis+1)
		for i := range entries {
			r := &entries[i].Rect
			byMin[i] = splitKey{r.Min[axis], r.Max[axis], int32(i)}
			byMax[i] = splitKey{r.Max[axis], r.Min[axis], int32(i)}
		}
		slices.SortFunc(byMin, splitKey.compare)
		slices.SortFunc(byMax, splitKey.compare)
		margin := 0.0
		for _, ord := range [2][]splitKey{byMin, byMax} {
			pre, suf := t.sweep(entries, ord)
			for k := m; k <= n-m; k++ {
				margin += pre[k].Margin(dims) + suf[k].Margin(dims)
			}
		}
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	// Choose the distribution along the best axis minimizing overlap,
	// ties by combined area.
	var best []splitKey
	bestK := 0
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for o := 2 * bestAxis; o < 2*bestAxis+2; o++ {
		pre, suf := t.sweep(entries, order(o))
		for k := m; k <= n-m; k++ {
			ov := pre[k].OverlapArea(suf[k], dims)
			area := pre[k].Area(dims) + suf[k].Area(dims)
			if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = ov, area
				best, bestK = order(o), k
			}
		}
	}
	out := make([]Entry, len(best))
	for i, key := range best {
		out[i] = entries[key.i]
	}
	return out[:bestK:bestK], out[bestK:]
}

// splitKey is entry i's place in a sort order of Split: by first, then
// second.
type splitKey struct {
	first, second float64
	i             int32
}

func (a splitKey) compare(b splitKey) int {
	return cmp.Or(cmp.Compare(a.first, b.first), cmp.Compare(a.second, b.second))
}

// sweep returns the MBRs of the first k entries in order ord (pre[k]) and
// of the rest (suf[k]), k = 0 … len(ord), in the tree's scratch.
func (t *Tree) sweep(entries []Entry, ord []splitKey) (pre, suf []geo.Rect) {
	n := len(ord)
	t.mbrs = slices.Grow(t.mbrs[:0], 2*n+2)[:2*n+2]
	pre, suf = t.mbrs[:n+1], t.mbrs[n+1:]
	pre[0], suf[n] = geo.EmptyRect(t.cfg.Dims), geo.EmptyRect(t.cfg.Dims)
	for k := range ord {
		pre[k+1] = pre[k].Union(entries[ord[k].i].Rect)
		suf[n-1-k] = suf[n-k].Union(entries[ord[n-1-k].i].Rect)
	}
	return pre, suf
}

// PickReinsert implements Reinserter: the R* forced reinsert removes the
// configured fraction of entries whose centers are farthest from the node
// center.
func (SpatialStrategy) PickReinsert(t *Tree, n *Node) []int {
	p := t.reinsertCount
	if p <= 0 || len(n.Entries)-p < t.minFill {
		return nil
	}
	center := n.MBR(t.cfg.Dims).Center()
	type di struct {
		d float64
		i int
	}
	ds := make([]di, len(n.Entries))
	for i, e := range n.Entries {
		ds[i] = di{geo.Dist(e.Rect.Center(), center, t.cfg.Dims), i}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	idxs := make([]int, p)
	for i := 0; i < p; i++ {
		idxs[i] = ds[i].i
	}
	return idxs
}
