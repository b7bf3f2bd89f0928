package core

import "tartree/internal/rstar"

// layout is what a search reads, published as one value so that a search
// never pairs one flat tree with another's rows: the flat tree and, where
// they apply (compileRows), the prefix rows of its entries.
type layout struct {
	ft   *rstar.FlatTree
	rows *prefixRows
	// stale marks a layout whose rows are not compiled — a flush outdated
	// them, or ft came from a snapshot: the next search compiles them over
	// the same ft.
	stale bool
}

// Freeze returns the flat layout every search reads (rstar.FlatTree): the
// R-tree compiled into contiguous slabs addressed by int32 ids. The pointer
// tree is the mutable build structure; a structural mutation (InsertPOI,
// DeletePOI, Rebuild, RebuildBulk) drops the layout through Unfreeze and
// the next Freeze — the next search, or a server pre-warming at start-up —
// compiles it once. Compiling only reads the pointer tree, so concurrent
// readers may race to it: one compiles, the rest wait and share the result.
// Check-in ingest (AddCheckIn, FlushEpochs) keeps the layout: its entries
// share the pointer tree's aggregate handles, so flushed epochs are
// observed without recompiling. A flush drops only the prefix rows, which
// the next Freeze compiles again.
//
// On an instrumented tree each compile of the layout counts in
// tartree_freezes_total.
func (t *Tree) Freeze() *rstar.FlatTree { return t.compiled().ft }

// compiled returns the published layout, compiling what is missing — the
// flat tree, its rows, or both — under compileMu.
func (t *Tree) compiled() *layout {
	if l := t.flat.Load(); l != nil && !l.stale {
		return l
	}
	t.compileMu.Lock()
	defer t.compileMu.Unlock()
	l := t.flat.Load()
	if l != nil && !l.stale {
		return l
	}
	var ft *rstar.FlatTree
	if l != nil {
		ft = l.ft
	} else {
		ft = t.rt.Freeze()
		if t.instr != nil {
			t.instr.freezes.Inc()
		}
	}
	l = &layout{ft: ft, rows: t.compileRows(ft)}
	t.flat.Store(l)
	return l
}

// Unfreeze drops the compiled layout; the next search recompiles it. Every
// structural mutation goes through here, under the tree's write lock.
func (t *Tree) Unfreeze() { t.flat.Store(nil) }

// dropRows keeps the layout and drops its rows: a flush changed the
// aggregates they sum. Under the tree's write lock, like Unfreeze.
func (t *Tree) dropRows() {
	if l := t.flat.Load(); l != nil && !l.stale {
		t.flat.Store(&layout{ft: l.ft, stale: true})
	}
}

// Frozen reports whether a compiled layout is installed, i.e. whether the
// next search starts without compiling it.
func (t *Tree) Frozen() bool { return t.flat.Load() != nil }
