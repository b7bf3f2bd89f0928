package core

import "tartree/internal/rstar"

// layout is the serving tree, published as one value so that a search
// never pairs one flat tree with another's columns: the flat tree, whose
// Data slab holds the entries' live TIAs, and, where they apply
// (newLayout), the columns of their aggregates. A flush patches the
// columns in place, or the TIAs' records, under the tree's write lock, and
// publishes the flat tree alone when the columns stop applying
// (patchEpoch).
type layout struct {
	ft   *rstar.FlatTree
	cols *columns
}

// Freeze returns the flat layout every search reads (rstar.FlatTree): the
// R-tree compiled into contiguous slabs addressed by int32 ids, the serving
// tree. The pointer R*-tree is the mutable build structure: a compile drops
// it, and a structural mutation (InsertPOI, DeletePOI, Rebuild,
// RebuildBulk) thaws it back and drops the layout through Unfreeze; the
// next Freeze — the next search or flush, or a server pre-warming at
// start-up — compiles it once, with its columns. Concurrent readers may
// race to the compile: one compiles, the rest wait and share the result.
// Check-in ingest (AddCheckIn, FlushEpochs) keeps the layout: a flush
// patches its columns, or the records of the TIAs its Data slab holds.
//
// On an instrumented tree each compile of the layout counts in
// tartree_freezes_total.
func (t *Tree) Freeze() *rstar.FlatTree { return t.compiled().ft }

// compiled returns the published layout, compiling it from the pointer
// tree under compileMu when there is none and dropping that tree.
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
	t.rt = nil
	return l
}

// Unfreeze thaws the pointer tree back from the compiled layout, hands the
// entries their records back from its columns, and drops the layout; the
// next search recompiles both. Every structural mutation goes through
// here, under the tree's write lock.
func (t *Tree) Unfreeze() {
	l := t.flat.Load()
	if l == nil {
		return
	}
	t.rt = t.thaw(l.ft)
	if l.cols != nil {
		t.dissolve(l)
	}
	t.flat.Store(nil)
}

// thaw rebuilds a pointer tree from ft, sharing its entries' TIAs. ft was
// compiled here or validated by the snapshot loader, so only a bug makes
// Thaw refuse it.
func (t *Tree) thaw(ft *rstar.FlatTree) *rstar.Tree {
	rt, err := ft.Thaw(t.rstarConfig())
	if err != nil {
		panic("core: thawing a compiled layout: " + err.Error())
	}
	return rt
}

// Frozen reports whether a compiled layout is installed, i.e. whether the
// next search starts without compiling it.
func (t *Tree) Frozen() bool { return t.flat.Load() != nil }
