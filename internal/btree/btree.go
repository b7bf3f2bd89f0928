// Package btree implements a disk-based B+-tree over a pagestore buffer
// pool. It is the paged backend for the TAR-tree's temporal indexes (TIAs),
// the paper's set-up and the experiments': keys are epoch start times and
// values are fixed-size records holding the epoch end time and the
// aggregate value.
//
// The tree supports point updates (Put is insert-or-overwrite), lookups,
// ordered range scans through linked leaves, deletion with rebalancing,
// and Destroy, which returns every page to the underlying file — used when
// an internal entry's TIA is rebuilt after an R-tree split.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tartree/internal/pagestore"
)

// Value is the fixed-size payload stored with each key. For a TIA record
// ⟨ts, te, agg⟩ keyed by ts, Value is {te, agg}.
type Value [2]int64

const (
	headerSize = 16 // flags(1) pad(1) count(2) next(4) pad(8)
	leafEntry  = 8 + 16
	innerEntry = 8 + 4 // key + child; one extra leading child per node

	flagLeaf = 1
)

var (
	errCorrupt = errors.New("btree: corrupt page")
	// ErrTooSmall is returned by New when the page size cannot hold the
	// minimum number of entries per node.
	ErrTooSmall = errors.New("btree: page size too small")
)

// node is the in-memory decoding of a page.
type node struct {
	id       pagestore.PageID
	leaf     bool
	keys     []int64
	vals     []Value            // leaf only; len == len(keys)
	children []pagestore.PageID // inner only; len == len(keys)+1
	next     pagestore.PageID   // leaf chain
}

// Tree is a disk-based B+-tree. Read-only operations (Get, Scan) are safe to call from many goroutines at once — the buffer
// pool synchronizes page access — but the tree is not safe for concurrent
// mutation, nor for mutation concurrent with reads; the TAR-tree serializes
// updates per TIA and never mutates TIAs while queries run.
type Tree struct {
	buf       *pagestore.Buffer
	root      pagestore.PageID
	height    int // 1 = root is a leaf
	count     int
	leafCap   int
	innerCap  int // max number of keys in an inner node
	pageSize  int
	scratch   []byte
	destroyed bool
}

// New creates an empty B+-tree whose pages are allocated from buf.
func New(buf *pagestore.Buffer) (*Tree, error) {
	ps := buf.PageSize()
	t := &Tree{
		buf:      buf,
		height:   1,
		leafCap:  (ps - headerSize) / leafEntry,
		innerCap: (ps - headerSize - 4) / innerEntry,
		pageSize: ps,
		scratch:  make([]byte, ps),
	}
	if t.leafCap < 3 || t.innerCap < 3 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooSmall, ps)
	}
	root, err := buf.Alloc()
	if err != nil {
		return nil, err
	}
	t.root = root
	if err := t.writeNode(&node{id: root, leaf: true}); err != nil {
		return nil, err
	}
	return t, nil
}

// NewBulk builds a tree over buf from strictly increasing keys in one
// bottom-up pass: the leaf level is written left to right, then each inner
// level over the one below. Records are spread evenly over ceil(n/cap)
// nodes per level, so every node meets the deletion minimum fill and later
// Puts and Deletes behave exactly as on an incrementally built tree. The
// cost is one page write per node — no reads, no splits — which is what
// makes snapshot restores cheap.
func NewBulk(buf *pagestore.Buffer, keys []int64, vals []Value) (*Tree, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("btree: bulk load with %d keys but %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return nil, fmt.Errorf("btree: bulk-load keys not strictly increasing at index %d", i)
		}
	}
	if len(keys) == 0 {
		return New(buf)
	}
	ps := buf.PageSize()
	t := &Tree{
		buf:      buf,
		leafCap:  (ps - headerSize) / leafEntry,
		innerCap: (ps - headerSize - 4) / innerEntry,
		pageSize: ps,
		scratch:  make([]byte, ps),
	}
	if t.leafCap < 3 || t.innerCap < 3 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooSmall, ps)
	}

	// child is one finished node of the level below, carried upward with
	// the smallest key of its subtree (the separator above it).
	type child struct {
		id  pagestore.PageID
		min int64
	}

	// Leaf level. All leaf pages are allocated first so each can chain to
	// its right sibling as it is written.
	n := len(keys)
	nleaves := (n + t.leafCap - 1) / t.leafCap
	ids := make([]pagestore.PageID, nleaves)
	var err error
	for i := range ids {
		if ids[i], err = buf.Alloc(); err != nil {
			return nil, err
		}
	}
	level := make([]child, 0, nleaves)
	off := 0
	for i := 0; i < nleaves; i++ {
		cnt := n / nleaves
		if i < n%nleaves {
			cnt++
		}
		nd := &node{id: ids[i], leaf: true, keys: keys[off : off+cnt], vals: vals[off : off+cnt]}
		if i+1 < nleaves {
			nd.next = ids[i+1]
		}
		if err := t.writeNode(nd); err != nil {
			return nil, err
		}
		level = append(level, child{ids[i], keys[off]})
		off += cnt
	}
	t.count = n
	t.height = 1

	// Inner levels, bottom-up, until one node remains.
	for len(level) > 1 {
		t.height++
		m := len(level)
		nnodes := (m + t.innerCap) / (t.innerCap + 1)
		next := make([]child, 0, nnodes)
		off := 0
		for i := 0; i < nnodes; i++ {
			cnt := m / nnodes
			if i < m%nnodes {
				cnt++
			}
			group := level[off : off+cnt]
			id, err := buf.Alloc()
			if err != nil {
				return nil, err
			}
			nd := &node{id: id}
			nd.children = make([]pagestore.PageID, cnt)
			nd.keys = make([]int64, cnt-1)
			for j, c := range group {
				nd.children[j] = c.id
				if j > 0 {
					nd.keys[j-1] = c.min
				}
			}
			if err := t.writeNode(nd); err != nil {
				return nil, err
			}
			next = append(next, child{id, group[0].min})
			off += cnt
		}
		level = next
	}
	t.root = level[0].id
	return t, nil
}

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.count }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// LeafCap and InnerCap expose node capacities for tests and sizing.
func (t *Tree) LeafCap() int  { return t.leafCap }
func (t *Tree) InnerCap() int { return t.innerCap }

// readNode decodes page id into a node. Only the mutating paths (Put,
// Delete, rebalance, Destroy) and Check use it; lookups and scans read the
// page bytes in place (see Get, Scan) and never build a node.
func (t *Tree) readNode(id pagestore.PageID) (*node, error) {
	page, err := t.buf.Get(id)
	if err != nil {
		return nil, err
	}
	n := &node{id: id}
	n.leaf = page[0]&flagLeaf != 0
	cnt := int(binary.LittleEndian.Uint16(page[2:4]))
	n.next = pagestore.PageID(binary.LittleEndian.Uint32(page[4:8]))
	off := headerSize
	if n.leaf {
		if cnt > t.leafCap {
			return nil, errCorrupt
		}
		n.keys = make([]int64, cnt)
		n.vals = make([]Value, cnt)
		for i := 0; i < cnt; i++ {
			n.keys[i] = int64(binary.LittleEndian.Uint64(page[off:]))
			n.vals[i][0] = int64(binary.LittleEndian.Uint64(page[off+8:]))
			n.vals[i][1] = int64(binary.LittleEndian.Uint64(page[off+16:]))
			off += leafEntry
		}
		return n, nil
	}
	if cnt > t.innerCap {
		return nil, errCorrupt
	}
	n.keys = make([]int64, cnt)
	n.children = make([]pagestore.PageID, cnt+1)
	n.children[0] = pagestore.PageID(binary.LittleEndian.Uint32(page[off:]))
	off += 4
	for i := 0; i < cnt; i++ {
		n.keys[i] = int64(binary.LittleEndian.Uint64(page[off:]))
		n.children[i+1] = pagestore.PageID(binary.LittleEndian.Uint32(page[off+8:]))
		off += innerEntry
	}
	return n, nil
}

func (t *Tree) writeNode(n *node) error {
	page := t.scratch
	for i := range page {
		page[i] = 0
	}
	if n.leaf {
		page[0] = flagLeaf
	}
	binary.LittleEndian.PutUint16(page[2:4], uint16(len(n.keys)))
	binary.LittleEndian.PutUint32(page[4:8], uint32(n.next))
	off := headerSize
	if n.leaf {
		for i, k := range n.keys {
			binary.LittleEndian.PutUint64(page[off:], uint64(k))
			binary.LittleEndian.PutUint64(page[off+8:], uint64(n.vals[i][0]))
			binary.LittleEndian.PutUint64(page[off+16:], uint64(n.vals[i][1]))
			off += leafEntry
		}
	} else {
		binary.LittleEndian.PutUint32(page[off:], uint32(n.children[0]))
		off += 4
		for i, k := range n.keys {
			binary.LittleEndian.PutUint64(page[off:], uint64(k))
			binary.LittleEndian.PutUint32(page[off+8:], uint32(n.children[i+1]))
			off += innerEntry
		}
	}
	return t.buf.Put(n.id, page)
}

// search returns the index of the first key >= k.
func search(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// The read path works on the page bytes in place. A slice returned by
// Buffer.Get is read-only and stays valid after the call: the buffer
// never recycles a frame's bytes (an evicted frame is dropped, not reused)
// and TIAs are not mutated while queries run, so nothing is decoded or
// copied — the header gives count and next, keys are binary-searched at
// their fixed offsets, and values are decoded only for the entries visited.

// pageCount validates the header of a page read at the given level and
// returns its entry count. With the page full-sized and the count within
// capacity, every fixed-width entry offset below is in range; anything else
// is a corrupt page, reported before any entry is indexed.
func (t *Tree) pageCount(page []byte, level int) (int, error) {
	if len(page) < t.pageSize {
		return 0, errCorrupt
	}
	leaf := page[0]&flagLeaf != 0
	cnt := int(binary.LittleEndian.Uint16(page[2:4]))
	if leaf != (level == 1) || leaf && cnt > t.leafCap || !leaf && cnt > t.innerCap {
		return 0, errCorrupt
	}
	return cnt, nil
}

// leafKey and leafValue decode entry i of a leaf page.
func leafKey(page []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(page[headerSize+i*leafEntry:]))
}

func leafValue(page []byte, i int) Value {
	e := page[headerSize+i*leafEntry+8:]
	return Value{int64(binary.LittleEndian.Uint64(e)), int64(binary.LittleEndian.Uint64(e[8:]))}
}

// leafSearch returns the index of the first of the leaf page's cnt keys
// that is >= k.
func leafSearch(page []byte, cnt int, k int64) int {
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(page, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findLeaf descends from the root to the leaf that may hold key, one
// Buffer.Get per inner node, and returns the leaf's page id. Child i of an
// inner page sits at headerSize + i*innerEntry, key i four bytes after it.
func (t *Tree) findLeaf(key int64) (pagestore.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		page, err := t.buf.Get(id)
		if err != nil {
			return 0, err
		}
		cnt, err := t.pageCount(page, level)
		if err != nil {
			return 0, err
		}
		// The number of keys <= key: separator keys equal to the key
		// route right.
		lo, hi := 0, cnt
		for lo < hi {
			mid := (lo + hi) / 2
			if int64(binary.LittleEndian.Uint64(page[headerSize+4+mid*innerEntry:])) <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		id = pagestore.PageID(binary.LittleEndian.Uint32(page[headerSize+lo*innerEntry:]))
	}
	return id, nil
}

// Get returns the value stored under key, and whether it exists.
func (t *Tree) Get(key int64) (Value, bool, error) {
	id, err := t.findLeaf(key)
	if err != nil {
		return Value{}, false, err
	}
	page, err := t.buf.Get(id)
	if err != nil {
		return Value{}, false, err
	}
	cnt, err := t.pageCount(page, 1)
	if err != nil {
		return Value{}, false, err
	}
	if i := leafSearch(page, cnt, key); i < cnt && leafKey(page, i) == key {
		return leafValue(page, i), true, nil
	}
	return Value{}, false, nil
}

// Put inserts key with value v, overwriting any existing value.
func (t *Tree) Put(key int64, v Value) error {
	sepKey, right, added, err := t.insert(t.root, t.height, key, v)
	if err != nil {
		return err
	}
	if added {
		t.count++
	}
	if right != pagestore.InvalidPage {
		// Grow a new root.
		id, err := t.buf.Alloc()
		if err != nil {
			return err
		}
		root := &node{
			id:       id,
			keys:     []int64{sepKey},
			children: []pagestore.PageID{t.root, right},
		}
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.root = id
		t.height++
	}
	return nil
}

// insert descends to the leaf, inserts and splits upward. It returns the
// separator key and new right sibling when the visited node split.
func (t *Tree) insert(id pagestore.PageID, level int, key int64, v Value) (int64, pagestore.PageID, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, pagestore.InvalidPage, false, err
	}
	if level == 1 {
		i := search(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = v
			return 0, pagestore.InvalidPage, false, t.writeNode(n)
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, Value{})
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
		if len(n.keys) <= t.leafCap {
			return 0, pagestore.InvalidPage, true, t.writeNode(n)
		}
		// Split the leaf.
		mid := len(n.keys) / 2
		rid, err := t.buf.Alloc()
		if err != nil {
			return 0, pagestore.InvalidPage, false, err
		}
		right := &node{
			id:   rid,
			leaf: true,
			keys: append([]int64(nil), n.keys[mid:]...),
			vals: append([]Value(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = rid
		if err := t.writeNode(n); err != nil {
			return 0, pagestore.InvalidPage, false, err
		}
		if err := t.writeNode(right); err != nil {
			return 0, pagestore.InvalidPage, false, err
		}
		return right.keys[0], rid, true, nil
	}

	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	sep, rchild, added, err := t.insert(n.children[i], level-1, key, v)
	if err != nil || rchild == pagestore.InvalidPage {
		return 0, pagestore.InvalidPage, added, err
	}
	// Insert separator and new child into this inner node.
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, pagestore.InvalidPage)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = rchild
	if len(n.keys) <= t.innerCap {
		return 0, pagestore.InvalidPage, added, t.writeNode(n)
	}
	// Split the inner node; the middle key moves up.
	mid := len(n.keys) / 2
	upKey := n.keys[mid]
	rid, err := t.buf.Alloc()
	if err != nil {
		return 0, pagestore.InvalidPage, false, err
	}
	right := &node{
		id:       rid,
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]pagestore.PageID(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	if err := t.writeNode(n); err != nil {
		return 0, pagestore.InvalidPage, false, err
	}
	if err := t.writeNode(right); err != nil {
		return 0, pagestore.InvalidPage, false, err
	}
	return upKey, rid, added, nil
}

// Scan visits all pairs with lo <= key <= hi in ascending key order,
// stopping early when fn returns false.
func (t *Tree) Scan(lo, hi int64, fn func(key int64, v Value) bool) error {
	id, err := t.findLeaf(lo)
	if err != nil {
		return err
	}
	// Every leaf but a lone root holds at least leafCap/2 keys, which bounds
	// the length of any valid chain; a longer walk means the next pointers
	// loop.
	hops := t.count/(t.leafCap/2) + 2
	for id != pagestore.InvalidPage {
		if hops--; hops < 0 {
			return errCorrupt
		}
		page, err := t.buf.Get(id)
		if err != nil {
			return err
		}
		cnt, err := t.pageCount(page, 1)
		if err != nil {
			return err
		}
		for i := leafSearch(page, cnt, lo); i < cnt; i++ {
			k := leafKey(page, i)
			if k > hi || !fn(k, leafValue(page, i)) {
				return nil
			}
		}
		id = pagestore.PageID(binary.LittleEndian.Uint32(page[4:8]))
	}
	return nil
}

// Delete removes key; it reports whether the key was present.
func (t *Tree) Delete(key int64) (bool, error) {
	removed, _, err := t.remove(t.root, t.height, key)
	if err != nil {
		return false, err
	}
	if removed {
		t.count--
	}
	// Collapse the root when an inner root has a single child.
	for t.height > 1 {
		n, err := t.readNode(t.root)
		if err != nil {
			return removed, err
		}
		if len(n.keys) > 0 {
			break
		}
		old := t.root
		t.root = n.children[0]
		t.height--
		if err := t.buf.Free(old); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

func (t *Tree) minKeys(level int) int {
	if level == 1 {
		return t.leafCap / 2
	}
	return t.innerCap / 2
}

// remove deletes key from the subtree rooted at id. The second result
// reports whether the node at id is now underfull (its parent rebalances).
func (t *Tree) remove(id pagestore.PageID, level int, key int64) (bool, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, false, err
	}
	if level == 1 {
		i := search(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			return false, false, nil
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		if err := t.writeNode(n); err != nil {
			return false, false, err
		}
		return true, len(n.keys) < t.minKeys(1), nil
	}
	i := search(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++
	}
	removed, under, err := t.remove(n.children[i], level-1, key)
	if err != nil || !under {
		return removed, false, err
	}
	if err := t.rebalance(n, i, level-1); err != nil {
		return removed, false, err
	}
	return removed, len(n.keys) < t.minKeys(level), nil
}

// rebalance fixes the underfull child at position i of parent p by
// borrowing from or merging with a sibling.
func (t *Tree) rebalance(p *node, i, childLevel int) error {
	child, err := t.readNode(p.children[i])
	if err != nil {
		return err
	}
	min := t.minKeys(childLevel)

	// Try to borrow from the left sibling.
	if i > 0 {
		left, err := t.readNode(p.children[i-1])
		if err != nil {
			return err
		}
		if len(left.keys) > min {
			if child.leaf {
				k := left.keys[len(left.keys)-1]
				v := left.vals[len(left.vals)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.vals = left.vals[:len(left.vals)-1]
				child.keys = append([]int64{k}, child.keys...)
				child.vals = append([]Value{v}, child.vals...)
				p.keys[i-1] = k
			} else {
				// Rotate through the parent separator.
				child.keys = append([]int64{p.keys[i-1]}, child.keys...)
				child.children = append([]pagestore.PageID{left.children[len(left.children)-1]}, child.children...)
				p.keys[i-1] = left.keys[len(left.keys)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.children = left.children[:len(left.children)-1]
			}
			if err := t.writeNode(left); err != nil {
				return err
			}
			if err := t.writeNode(child); err != nil {
				return err
			}
			return t.writeNode(p)
		}
	}
	// Try to borrow from the right sibling.
	if i < len(p.children)-1 {
		right, err := t.readNode(p.children[i+1])
		if err != nil {
			return err
		}
		if len(right.keys) > min {
			if child.leaf {
				child.keys = append(child.keys, right.keys[0])
				child.vals = append(child.vals, right.vals[0])
				right.keys = right.keys[1:]
				right.vals = right.vals[1:]
				p.keys[i] = right.keys[0]
			} else {
				child.keys = append(child.keys, p.keys[i])
				child.children = append(child.children, right.children[0])
				p.keys[i] = right.keys[0]
				right.keys = right.keys[1:]
				right.children = right.children[1:]
			}
			if err := t.writeNode(right); err != nil {
				return err
			}
			if err := t.writeNode(child); err != nil {
				return err
			}
			return t.writeNode(p)
		}
	}
	// Merge with a sibling. Normalize so we merge child i into i-1.
	j := i
	if j == 0 {
		j = 1
	}
	left, err := t.readNode(p.children[j-1])
	if err != nil {
		return err
	}
	right, err := t.readNode(p.children[j])
	if err != nil {
		return err
	}
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, p.keys[j-1])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	p.keys = append(p.keys[:j-1], p.keys[j:]...)
	p.children = append(p.children[:j], p.children[j+1:]...)
	if err := t.writeNode(left); err != nil {
		return err
	}
	if err := t.buf.Free(right.id); err != nil {
		return err
	}
	return t.writeNode(p)
}

// Destroy frees every page of the tree. The tree must not be used after.
func (t *Tree) Destroy() error {
	if t.destroyed {
		return nil
	}
	t.destroyed = true
	return t.freeSubtree(t.root, t.height)
}

func (t *Tree) freeSubtree(id pagestore.PageID, level int) error {
	if level > 1 {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for _, c := range n.children {
			if err := t.freeSubtree(c, level-1); err != nil {
				return err
			}
		}
	}
	return t.buf.Free(id)
}

// Check validates structural invariants (ordering, fill factors, leaf
// chaining, key count). Intended for tests.
func (t *Tree) Check() error {
	total, _, _, err := t.check(t.root, t.height, nil, nil, true)
	if err != nil {
		return err
	}
	if total != t.count {
		return fmt.Errorf("btree: count mismatch: counted %d, recorded %d", total, t.count)
	}
	return nil
}

func (t *Tree) check(id pagestore.PageID, level int, lo, hi *int64, isRoot bool) (int, pagestore.PageID, pagestore.PageID, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, 0, 0, err
	}
	if n.leaf != (level == 1) {
		return 0, 0, 0, fmt.Errorf("btree: node %d leaf flag mismatch at level %d", id, level)
	}
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return 0, 0, 0, fmt.Errorf("btree: node %d keys out of order", id)
		}
	}
	for _, k := range n.keys {
		if lo != nil && k < *lo || hi != nil && k >= *hi {
			return 0, 0, 0, fmt.Errorf("btree: node %d key %d outside separator range", id, k)
		}
	}
	if !isRoot && len(n.keys) < t.minKeys(level) {
		return 0, 0, 0, fmt.Errorf("btree: node %d underfull (%d keys at level %d)", id, len(n.keys), level)
	}
	if n.leaf {
		return len(n.keys), id, id, nil
	}
	total := 0
	var firstLeaf, prevLast pagestore.PageID
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		}
		cnt, fl, ll, err := t.check(c, level-1, clo, chi, false)
		if err != nil {
			return 0, 0, 0, err
		}
		total += cnt
		if i == 0 {
			firstLeaf = fl
		} else if level == 2 {
			// Verify the leaf chain between consecutive children.
			prev, err := t.readNode(prevLast)
			if err != nil {
				return 0, 0, 0, err
			}
			if prev.next != fl {
				return 0, 0, 0, fmt.Errorf("btree: broken leaf chain at %d -> %d", prevLast, fl)
			}
		}
		prevLast = ll
	}
	return total, firstLeaf, prevLast, nil
}
