package core

import "tartree/internal/rstar"

// layout is what a search reads, published as one value so that a search
// never pairs one flat tree with another's columns: the flat tree and,
// where they apply (compileCols), the columns of its entries' aggregates.
// A flush patches the columns in place, under the tree's write lock, or
// publishes the flat tree alone when they stop applying (patchEpoch).
type layout struct {
	ft   *rstar.FlatTree
	cols *columns
}

// Freeze returns the flat layout every search reads (rstar.FlatTree): the
// R-tree compiled into contiguous slabs addressed by int32 ids. The pointer
// tree is the mutable build structure; a structural mutation (InsertPOI,
// DeletePOI, Rebuild, RebuildBulk) drops the layout through Unfreeze and
// the next Freeze — the next search, or a server pre-warming at start-up —
// compiles it once, with its columns. Compiling only reads the pointer tree
// and releases the records the columns replace, so concurrent readers may
// race to it: one compiles, the rest wait and share the result. Check-in
// ingest (AddCheckIn, FlushEpochs) keeps the layout: a flush patches its
// columns, or the records its entries share with the pointer tree, and
// the next search compiles nothing.
//
// On an instrumented tree each compile of the layout counts in
// tartree_freezes_total.
func (t *Tree) Freeze() *rstar.FlatTree { return t.compiled().ft }

// compiled returns the published layout, compiling it under compileMu when
// there is none.
func (t *Tree) compiled() *layout {
	if l := t.flat.Load(); l != nil {
		return l
	}
	t.compileMu.Lock()
	defer t.compileMu.Unlock()
	if l := t.flat.Load(); l != nil {
		return l
	}
	ft := t.rt.Freeze()
	if t.instr != nil {
		t.instr.freezes.Inc()
	}
	l := t.newLayout(ft)
	t.flat.Store(l)
	return l
}

// Unfreeze drops the compiled layout, handing the entries their records
// back from its columns first; the next search recompiles both. Every
// structural mutation goes through here, under the tree's write lock.
func (t *Tree) Unfreeze() {
	if l := t.flat.Load(); l != nil && l.cols != nil {
		t.dissolve(l)
	}
	t.flat.Store(nil)
}

// Frozen reports whether a compiled layout is installed, i.e. whether the
// next search starts without compiling it.
func (t *Tree) Frozen() bool { return t.flat.Load() != nil }
