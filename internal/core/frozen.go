package core

import "tartree/internal/rstar"

// Freeze returns the flat layout every search reads (rstar.FlatTree): the
// R-tree compiled into contiguous slabs addressed by int32 ids. The pointer
// tree is the mutable build structure; a structural mutation (InsertPOI,
// DeletePOI, Rebuild, RebuildBulk) drops the layout through Unfreeze and
// the next Freeze — the next search, or a server pre-warming at start-up —
// compiles it once. Compiling only reads the pointer tree, so concurrent
// readers may race to it: one compiles, the rest wait and share the result.
// Check-in ingest (AddCheckIn, FlushEpochs) keeps the layout: its entries
// share the pointer tree's aggregate handles, so flushed epochs are
// observed without recompiling.
//
// On an instrumented tree each compile counts in tartree_freezes_total.
func (t *Tree) Freeze() *rstar.FlatTree {
	if f := t.flat.Load(); f != nil {
		return f
	}
	t.compileMu.Lock()
	defer t.compileMu.Unlock()
	if f := t.flat.Load(); f != nil {
		return f
	}
	f := t.rt.Freeze()
	if t.instr != nil {
		t.instr.freezes.Inc()
	}
	t.flat.Store(f)
	return f
}

// Unfreeze drops the compiled layout; the next search recompiles it. Every
// structural mutation goes through here, under the tree's write lock.
func (t *Tree) Unfreeze() { t.flat.Store(nil) }

// Frozen reports whether a compiled layout is installed, i.e. whether the
// next search starts without compiling.
func (t *Tree) Frozen() bool { return t.flat.Load() != nil }
