package core

import (
	"runtime"
	"time"

	"tartree/internal/rstar"
)

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
// On an instrumented tree a compile exports tartree_index_bytes by layout,
// the freeze duration histogram, and the allocation/heap-object deltas of
// the compilation (the GC-pressure price of the flat copy).
func (t *Tree) Freeze() *rstar.FlatTree {
	if f := t.flat.Load(); f != nil {
		return f
	}
	t.compileMu.Lock()
	defer t.compileMu.Unlock()
	if f := t.flat.Load(); f != nil {
		return f
	}
	var before runtime.MemStats
	if t.instr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	f := t.rt.Freeze()
	d := time.Since(start)
	if t.instr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.instr.recordFreeze(t.rt.MemoryBytes(), f.Bytes(), d,
			int64(after.Mallocs-before.Mallocs), int64(after.HeapObjects)-int64(before.HeapObjects))
	}
	t.flat.Store(f)
	return f
}

// Unfreeze drops the compiled layout; the next search recompiles it. Every
// structural mutation goes through here, under the tree's write lock.
func (t *Tree) Unfreeze() {
	if t.flat.Swap(nil) != nil && t.instr != nil {
		t.instr.recordIndexBytes(t.rt.MemoryBytes(), 0)
	}
}

// Frozen reports whether a compiled layout is installed, i.e. whether the
// next search starts without compiling.
func (t *Tree) Frozen() bool { return t.flat.Load() != nil }

// IndexBytes returns the heap footprint of the pointer tree and of the
// compiled layout (0 while none is installed). Aggregate data is excluded
// from both — it is shared, so it cancels out of the comparison.
func (t *Tree) IndexBytes() (pointer, flat int64) {
	return t.rt.MemoryBytes(), t.flat.Load().Bytes()
}

// recordIndexBytes exports the by-layout footprint gauges.
func (in *instruments) recordIndexBytes(pointerBytes, flatBytes int64) {
	if in == nil {
		return
	}
	in.reg.Gauge(`tartree_index_bytes{layout="pointer"}`).Set(float64(pointerBytes))
	in.reg.Gauge(`tartree_index_bytes{layout="flat"}`).Set(float64(flatBytes))
}

// recordFreeze exports one freeze into the registry.
func (in *instruments) recordFreeze(pointerBytes, flatBytes int64, d time.Duration, allocs, heapObjects int64) {
	if in == nil {
		return
	}
	in.recordIndexBytes(pointerBytes, flatBytes)
	in.reg.Histogram("tartree_freeze_duration_seconds", nil).Observe(d.Seconds())
	in.reg.Gauge("tartree_freeze_allocs_delta").Set(float64(allocs))
	in.reg.Gauge("tartree_freeze_heap_objects_delta").Set(float64(heapObjects))
	in.reg.Counter("tartree_freezes_total").Inc()
}
