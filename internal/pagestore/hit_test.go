package pagestore

import (
	"sync/atomic"
	"testing"
)

// residentBuffer returns a buffer of the paper's 10 slots with every slot
// holding a page, and the page ids.
func residentBuffer(tb testing.TB, ledger *Ledger) (*Buffer, []PageID) {
	tb.Helper()
	const slots = 10
	b := NewBufferWithLedger(NewMemFile(256), slots, ledger)
	ids := make([]PageID, slots)
	for i := range ids {
		id, err := b.Alloc()
		if err != nil {
			tb.Fatal(err)
		}
		if err := b.Put(id, make([]byte, 256)); err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	return b, ids
}

// TestGetTagHitAllocatesNothing pins the buffer hit path: a read of a
// resident page allocates nothing, with or without an acct on the tag.
func TestGetTagHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var ledger Ledger
	b, ids := residentBuffer(t, &ledger)
	var io IOBreakdown
	acct := IOAcct{IO: &io}
	for name, tag := range map[string]IOTag{
		"unowned": NewIOTag(CompTIABTree, 1),
		"acct":    NewIOTag(CompTIABTree, 1).WithAcct(&acct),
	} {
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := b.GetTag(ids[i%len(ids)], tag); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: a resident GetTag allocates %.1f objects, want 0", name, allocs)
		}
	}
}

// BenchmarkGetTagHit is the per-layer number for one read of a resident
// page, round-robin over a full 10-slot buffer:
//
//   - bare: no ledger, no acct (what benchmark/'s pagestore.get_hit_ns times);
//   - ledger: wired as a tia factory wires a buffer, the access unowned —
//     every read adds to one shared ledger cell;
//   - ledger+acct: the same wiring with a query's acct on the tag, which is
//     how Scorer.aggregate reads — the ledger is not touched;
//   - parallel: ledger+acct from GOMAXPROCS goroutines, each on its own
//     buffer and acct but all wired to the same ledger. Nothing is shared
//     on this path, so ns/op at -cpu 2 should be about half of -cpu 1; run
//     with -cpu 1,2.
func BenchmarkGetTagHit(b *testing.B) {
	run := func(b *testing.B, buf *Buffer, ids []PageID, tag IOTag) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buf.GetTag(ids[i%len(ids)], tag); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		buf, ids := residentBuffer(b, nil)
		run(b, buf, ids, IOTag{})
	})
	var ledger Ledger
	b.Run("ledger", func(b *testing.B) {
		buf, ids := residentBuffer(b, &ledger)
		run(b, buf, ids, NewIOTag(CompTIABTree, 1))
	})
	b.Run("ledger+acct", func(b *testing.B) {
		buf, ids := residentBuffer(b, &ledger)
		var io IOBreakdown
		run(b, buf, ids, NewIOTag(CompTIABTree, 1).WithAcct(&IOAcct{IO: &io}))
	})
	b.Run("parallel", func(b *testing.B) {
		var failed atomic.Bool
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			buf, ids := residentBuffer(b, &ledger)
			var io IOBreakdown
			tag := NewIOTag(CompTIABTree, 1).WithAcct(&IOAcct{IO: &io})
			for i := 0; pb.Next(); i++ {
				if _, err := buf.GetTag(ids[i%len(ids)], tag); err != nil {
					failed.Store(true)
					return
				}
			}
		})
		if failed.Load() {
			b.Fatal("GetTag failed on a resident page")
		}
	})
}
