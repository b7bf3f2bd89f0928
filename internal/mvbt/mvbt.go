// Package mvbt implements the multi-version B-tree of Becker, Gschwind,
// Ohler, Seeger and Widmayer (VLDBJ 1996), the index the paper names as its
// TIA implementation ("we have used the disk-based multi-version B-tree in
// our implementation as it has been proven to be asymptotically optimal").
//
// An MVBT stores entries ⟨key, [vstart, vend), value⟩ and answers key and
// key-range queries *as of any version*. Updates happen at non-decreasing
// versions. Nodes satisfy the weak version condition: for every version a
// node covers, the number of entries live at that version is either zero or
// at least d (except for roots). Physical overflow and weak-version
// underflow are repaired by version splits, optionally followed by key
// splits or merges with a sibling, exactly as in the original paper.
//
// The tree lives on a pagestore buffer pool; historical nodes are never
// modified after they are retired, which is what makes the structure
// append-friendly for the TAR-tree's ever-growing aggregate histories.
package mvbt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"encoding/binary"

	"tartree/internal/pagestore"
)

// Value is the fixed-size payload of a leaf entry.
type Value [2]int64

// Live is the vend sentinel of entries that have not been deleted.
const Live int64 = math.MaxInt64

const (
	headerSize = 16
	entrySize  = 8 + 8 + 8 + 16 // key, vstart, vend, value/child

	flagLeaf = 1
)

// ErrTooSmall is returned by New when pages cannot hold enough entries.
var ErrTooSmall = errors.New("mvbt: page size too small")

// ErrVersionOrder is returned when an update uses a version smaller than a
// previous update's version.
var ErrVersionOrder = errors.New("mvbt: versions must be non-decreasing")

type entry struct {
	key    int64
	vstart int64
	vend   int64 // Live when not deleted
	val    Value // leaf payload; val[0] holds the child PageID in inner nodes
}

func (e entry) child() pagestore.PageID { return pagestore.PageID(e.val[0]) }

func (e entry) liveAt(v int64) bool { return e.vstart <= v && v < e.vend }

type node struct {
	id      pagestore.PageID
	leaf    bool
	entries []entry
}

func (n *node) liveCount(v int64) int {
	c := 0
	for _, e := range n.entries {
		if e.liveAt(v) {
			c++
		}
	}
	return c
}

// rootSpan records which node was the root for versions [vstart, vend).
type rootSpan struct {
	vstart, vend int64
	id           pagestore.PageID
	height       int // 1 = leaf root
}

// Tree is a multi-version B-tree.
type Tree struct {
	buf   *pagestore.Buffer
	roots []rootSpan // the last span is live (vend == Live)
	b     int        // node capacity in entries
	d     int        // weak version condition minimum
	svd   int        // strong condition lower bound after restructuring
	svo   int        // strong condition upper bound after restructuring
	now   int64      // version of the latest update
	count int        // live key count
}

// New creates an empty MVBT allocating pages from buf. The initial version
// is the smallest int64, so any first update version is acceptable.
func New(buf *pagestore.Buffer) (*Tree, error) {
	b := (buf.PageSize() - headerSize) / entrySize
	if b < 8 {
		return nil, fmt.Errorf("%w: %d bytes (capacity %d)", ErrTooSmall, buf.PageSize(), b)
	}
	t := &Tree{
		buf: buf,
		b:   b,
		d:   b / 8,
		svd: b / 4,
		svo: b - b/8,
		now: math.MinInt64,
	}
	if t.d < 2 {
		t.d = 2
	}
	if t.svd <= t.d {
		t.svd = t.d + 1
	}
	id, err := buf.Alloc()
	if err != nil {
		return nil, err
	}
	if err := t.writeNode(&node{id: id, leaf: true}); err != nil {
		return nil, err
	}
	t.roots = []rootSpan{{vstart: math.MinInt64, vend: Live, id: id, height: 1}}
	return t, nil
}

// Capacity returns the node capacity in entries.
func (t *Tree) Capacity() int { return t.b }

// Len returns the number of live keys at the current version.
func (t *Tree) Len() int { return t.count }

// Now returns the latest update version seen.
func (t *Tree) Now() int64 { return t.now }

// NumRoots returns how many root spans exist (tests use this to verify that
// version splits of the root occurred).
func (t *Tree) NumRoots() int { return len(t.roots) }

func (t *Tree) readNode(id pagestore.PageID) (*node, error) {
	page, err := t.buf.Get(id)
	if err != nil {
		return nil, err
	}
	n := &node{id: id}
	n.leaf = page[0]&flagLeaf != 0
	cnt := int(binary.LittleEndian.Uint16(page[2:4]))
	if cnt > t.b {
		return nil, fmt.Errorf("mvbt: corrupt node %d: %d entries", id, cnt)
	}
	n.entries = make([]entry, cnt)
	off := headerSize
	for i := range n.entries {
		e := &n.entries[i]
		e.key = int64(binary.LittleEndian.Uint64(page[off:]))
		e.vstart = int64(binary.LittleEndian.Uint64(page[off+8:]))
		e.vend = int64(binary.LittleEndian.Uint64(page[off+16:]))
		e.val[0] = int64(binary.LittleEndian.Uint64(page[off+24:]))
		e.val[1] = int64(binary.LittleEndian.Uint64(page[off+32:]))
		off += entrySize
	}
	return n, nil
}

func (t *Tree) writeNode(n *node) error {
	if len(n.entries) > t.b {
		return fmt.Errorf("mvbt: node %d over capacity (%d > %d)", n.id, len(n.entries), t.b)
	}
	page := make([]byte, t.buf.PageSize())
	if n.leaf {
		page[0] = flagLeaf
	}
	binary.LittleEndian.PutUint16(page[2:4], uint16(len(n.entries)))
	off := headerSize
	for _, e := range n.entries {
		binary.LittleEndian.PutUint64(page[off:], uint64(e.key))
		binary.LittleEndian.PutUint64(page[off+8:], uint64(e.vstart))
		binary.LittleEndian.PutUint64(page[off+16:], uint64(e.vend))
		binary.LittleEndian.PutUint64(page[off+24:], uint64(e.val[0]))
		binary.LittleEndian.PutUint64(page[off+32:], uint64(e.val[1]))
		off += entrySize
	}
	return t.buf.Put(n.id, page)
}

func (t *Tree) liveRoot() *rootSpan { return &t.roots[len(t.roots)-1] }

// rootFor returns the root span covering version v.
func (t *Tree) rootFor(v int64) rootSpan {
	i := sort.Search(len(t.roots), func(i int) bool { return t.roots[i].vend > v })
	if i == len(t.roots) {
		i = len(t.roots) - 1
	}
	return t.roots[i]
}

// routeChild picks the live child entry of n that covers key at version v:
// the live entry with the largest router key <= key, or the live entry with
// the smallest router when key precedes all routers.
func routeChild(n *node, v, key int64) (int, bool) {
	best, first := -1, -1
	var bestKey, firstKey int64
	for i, e := range n.entries {
		if !e.liveAt(v) {
			continue
		}
		if first == -1 || e.key < firstKey {
			first, firstKey = i, e.key
		}
		if e.key <= key && (best == -1 || e.key > bestKey) {
			best, bestKey = i, e.key
		}
	}
	if best != -1 {
		return best, true
	}
	if first != -1 {
		return first, true
	}
	return -1, false
}

// pathElem records the nodes visited during a descent.
type pathElem struct {
	n        *node
	childIdx int // index in n.entries of the child taken (inner levels)
}

func (t *Tree) descend(v, key int64) ([]pathElem, error) {
	span := t.rootFor(v)
	path := make([]pathElem, 0, span.height)
	id := span.id
	for level := span.height; level >= 1; level-- {
		n, err := t.readNode(id)
		if err != nil {
			return nil, err
		}
		pe := pathElem{n: n, childIdx: -1}
		if level > 1 {
			i, ok := routeChild(n, v, key)
			if !ok {
				return nil, fmt.Errorf("mvbt: no live route at node %d version %d", id, v)
			}
			pe.childIdx = i
			id = n.entries[i].child()
		}
		path = append(path, pe)
	}
	return path, nil
}

// Insert adds key with value val at version v. Inserting a key that is
// already live at v is an error (use Update to change a live value).
func (t *Tree) Insert(v, key int64, val Value) error {
	if v < t.now {
		return fmt.Errorf("%w: %d after %d", ErrVersionOrder, v, t.now)
	}
	t.now = v
	path, err := t.descend(v, key)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1].n
	for _, e := range leaf.entries {
		if e.key == key && e.liveAt(v) {
			return fmt.Errorf("mvbt: key %d already live at version %d", key, v)
		}
	}
	leaf.entries = append(leaf.entries, entry{key: key, vstart: v, vend: Live, val: val})
	t.count++
	return t.fix(path, v)
}

// Delete marks key dead at version v. It reports whether the key was live.
func (t *Tree) Delete(v, key int64) (bool, error) {
	if v < t.now {
		return false, fmt.Errorf("%w: %d after %d", ErrVersionOrder, v, t.now)
	}
	t.now = v
	path, err := t.descend(v, key)
	if err != nil {
		return false, err
	}
	leaf := path[len(path)-1].n
	found := false
	for i := range leaf.entries {
		e := &leaf.entries[i]
		if e.key == key && e.liveAt(v) {
			if e.vstart == v {
				// Inserted and deleted at the same version: drop outright to
				// avoid zombie entries.
				leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			} else {
				e.vend = v
			}
			found = true
			break
		}
	}
	if !found {
		return false, nil
	}
	t.count--
	return true, t.fix(path, v)
}

// Update changes the value of a live key at version v by deleting and
// re-inserting it, preserving the old value in history.
func (t *Tree) Update(v, key int64, val Value) error {
	ok, err := t.Delete(v, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("mvbt: update of non-live key %d", key)
	}
	return t.Insert(v, key, val)
}

// needsFix reports whether node n violates physical capacity or, for
// non-roots, the weak version condition at version v.
func (t *Tree) needsFix(n *node, v int64, isRoot bool) bool {
	if len(n.entries) > t.b {
		return true
	}
	if isRoot {
		return false
	}
	return n.liveCount(v) < t.d
}

// fix repairs violations along the path from the leaf upward, performing
// version splits, key splits and merges. Restructuring a node modifies its
// parent in memory, so the walk continues until it reaches a level that
// needs no repair, which it then persists; everything above is untouched.
func (t *Tree) fix(path []pathElem, v int64) error {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i].n
		if !t.needsFix(n, v, i == 0) {
			return t.writeNode(n)
		}
		if i == 0 {
			return t.fixRoot(n, v)
		}
		if err := t.restructure(path[i-1].n, n, v); err != nil {
			return err
		}
	}
	return nil
}

// versionCopy closes all live entries of n at version v and returns fresh
// copies with lifespan [v, Live). Entries born at v are moved, not copied,
// so no zombie [v, v) entries remain.
func versionCopy(n *node, v int64) []entry {
	var out []entry
	kept := n.entries[:0]
	for _, e := range n.entries {
		if !e.liveAt(v) {
			kept = append(kept, e)
			continue
		}
		c := e
		c.vstart = v
		c.vend = Live
		out = append(out, c)
		if e.vstart == v {
			continue // moved
		}
		e.vend = v
		kept = append(kept, e)
	}
	n.entries = kept
	return out
}

// splitByKey splits entries (all live from v) into two halves around the
// median key. The right half's router is its smallest key; the left half
// keeps the inherited router of the node that split.
func splitByKey(entries []entry) ([]entry, []entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	mid := len(entries) / 2
	left := append([]entry(nil), entries[:mid]...)
	right := append([]entry(nil), entries[mid:]...)
	return left, right
}

// newNodeFrom allocates and writes a node holding entries.
func (t *Tree) newNodeFrom(leaf bool, entries []entry) (*node, error) {
	id, err := t.buf.Alloc()
	if err != nil {
		return nil, err
	}
	n := &node{id: id, leaf: leaf, entries: entries}
	return n, t.writeNode(n)
}

// closeParentEntry marks the live parent entry pointing at child dead at v
// (or removes it when it was born at v) and returns the entry's router key.
// Router keys are the key-range separators inherited across version splits;
// they — not the minimum stored key — define which child covers a key, so
// restructured nodes must inherit them.
func closeParentEntry(parent *node, child pagestore.PageID, v int64) (int64, bool) {
	for i := range parent.entries {
		e := &parent.entries[i]
		if e.child() == child && e.liveAt(v) {
			router := e.key
			if e.vstart == v {
				parent.entries = append(parent.entries[:i], parent.entries[i+1:]...)
			} else {
				e.vend = v
			}
			return router, true
		}
	}
	return 0, false
}

// siblingOf picks a live sibling for a merge: the live entry whose router
// key is adjacent (closest) to router. Adjacency in router order guarantees
// the merged node covers a contiguous key range.
func siblingOf(parent *node, exclude pagestore.PageID, v, router int64) (pagestore.PageID, bool) {
	best := pagestore.InvalidPage
	bestGap := uint64(math.MaxUint64)
	for _, e := range parent.entries {
		if !e.liveAt(v) || e.child() == exclude {
			continue
		}
		var gap uint64
		if e.key >= router {
			gap = uint64(e.key - router)
		} else {
			gap = uint64(router - e.key)
		}
		if gap < bestGap {
			bestGap = gap
			best = e.child()
		}
	}
	return best, best != pagestore.InvalidPage
}

// restructure repairs child (which violates capacity or the weak version
// condition) underneath parent at version v: version split, then merge on
// strong underflow or key split on strong overflow. parent is updated in
// memory only; the caller continues fixing upward and writes it later.
func (t *Tree) restructure(parent, child *node, v int64) error {
	liveEntries := versionCopy(child, v)
	if err := t.writeNode(child); err != nil { // retire the old node
		return err
	}
	router, ok := closeParentEntry(parent, child.id, v)
	if !ok {
		return fmt.Errorf("mvbt: parent %d has no live entry for child %d", parent.id, child.id)
	}

	// Strong version underflow: merge with the router-adjacent sibling.
	if len(liveEntries) < t.svd {
		if sibID, ok := siblingOf(parent, child.id, v, router); ok {
			sib, err := t.readNode(sibID)
			if err != nil {
				return err
			}
			sibLive := versionCopy(sib, v)
			if err := t.writeNode(sib); err != nil {
				return err
			}
			sibRouter, ok := closeParentEntry(parent, sib.id, v)
			if !ok {
				return fmt.Errorf("mvbt: parent %d has no live entry for sibling %d", parent.id, sib.id)
			}
			if sibRouter < router {
				router = sibRouter
			}
			liveEntries = append(liveEntries, sibLive...)
		}
	}

	if len(liveEntries) == 0 {
		// Everything died; the parent simply loses the child.
		return nil
	}

	addChild := func(router int64, leaf bool, entries []entry) error {
		nn, err := t.newNodeFrom(leaf, entries)
		if err != nil {
			return err
		}
		parent.entries = append(parent.entries, entry{
			key:    router,
			vstart: v,
			vend:   Live,
			val:    Value{int64(nn.id), 0},
		})
		return nil
	}

	// Strong version overflow: key split into two nodes.
	if len(liveEntries) > t.svo {
		l, r := splitByKey(liveEntries)
		if err := addChild(router, child.leaf, l); err != nil {
			return err
		}
		return addChild(r[0].key, child.leaf, r)
	}
	return addChild(router, child.leaf, liveEntries)
}

// fixRoot repairs a root that overflowed its page (roots are exempt from
// the weak version condition). The root's implicit router is the smallest
// key, so key-splitting a root gives the left part a -inf router.
func (t *Tree) fixRoot(root *node, v int64) error {
	liveEntries := versionCopy(root, v)
	if err := t.writeNode(root); err != nil {
		return err
	}
	span := t.liveRoot()
	span.vend = v

	if len(liveEntries) == 0 {
		// Degenerate: everything is dead. Start a fresh empty leaf root.
		nn, err := t.newNodeFrom(true, nil)
		if err != nil {
			return err
		}
		t.roots = append(t.roots, rootSpan{vstart: v, vend: Live, id: nn.id, height: 1})
		return nil
	}

	if len(liveEntries) > t.svo {
		l, r := splitByKey(liveEntries)
		ln, err := t.newNodeFrom(root.leaf, l)
		if err != nil {
			return err
		}
		rn, err := t.newNodeFrom(root.leaf, r)
		if err != nil {
			return err
		}
		newRoot, err := t.newNodeFrom(false, []entry{
			{key: math.MinInt64, vstart: v, vend: Live, val: Value{int64(ln.id), 0}},
			{key: r[0].key, vstart: v, vend: Live, val: Value{int64(rn.id), 0}},
		})
		if err != nil {
			return err
		}
		t.roots = append(t.roots, rootSpan{vstart: v, vend: Live, id: newRoot.id, height: span.height + 1})
		return nil
	}

	nn, err := t.newNodeFrom(root.leaf, liveEntries)
	if err != nil {
		return err
	}
	t.roots = append(t.roots, rootSpan{vstart: v, vend: Live, id: nn.id, height: span.height})
	return nil
}

// Get returns the value of key as of version v.
func (t *Tree) Get(v, key int64) (Value, bool, error) {
	span := t.rootFor(v)
	id := span.id
	for level := span.height; level > 1; level-- {
		n, err := t.readNode(id)
		if err != nil {
			return Value{}, false, err
		}
		i, ok := routeChild(n, v, key)
		if !ok {
			return Value{}, false, nil
		}
		id = n.entries[i].child()
	}
	n, err := t.readNode(id)
	if err != nil {
		return Value{}, false, err
	}
	for _, e := range n.entries {
		if e.key == key && e.liveAt(v) {
			return e.val, true, nil
		}
	}
	return Value{}, false, nil
}

// ScanAt visits all live ⟨key, value⟩ pairs with lo <= key <= hi as of
// version v, in ascending key order, stopping early when fn returns false.
// Read-only operations are safe to call from many goroutines at once;
// mutation must not run concurrently with anything else.
func (t *Tree) ScanAt(v, lo, hi int64, fn func(key int64, val Value) bool) error {
	span := t.rootFor(v)
	var results []entry
	if err := t.collect(span.id, span.height, v, lo, hi, &results); err != nil {
		return err
	}
	sort.Slice(results, func(i, j int) bool { return results[i].key < results[j].key })
	for _, e := range results {
		if !fn(e.key, e.val) {
			return nil
		}
	}
	return nil
}

// collect gathers live leaf entries in [lo, hi] at version v.
func (t *Tree) collect(id pagestore.PageID, level int, v, lo, hi int64, out *[]entry) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if level == 1 {
		for _, e := range n.entries {
			if e.liveAt(v) && lo <= e.key && e.key <= hi {
				*out = append(*out, e)
			}
		}
		return nil
	}
	// Children partition the live key space by router key: child i covers
	// [router_i, router_{i+1}). Sort the live children by router.
	var live []entry
	for _, e := range n.entries {
		if e.liveAt(v) {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
	for i, e := range live {
		next := int64(math.MaxInt64)
		if i+1 < len(live) {
			next = live[i+1].key
		}
		// Child i covers keys [e.key, next); the first child also covers
		// everything below its router.
		covLo := e.key
		if i == 0 {
			covLo = math.MinInt64
		}
		if covLo > hi || next <= lo {
			continue
		}
		if err := t.collect(e.child(), level-1, v, lo, hi, out); err != nil {
			return err
		}
	}
	return nil
}
