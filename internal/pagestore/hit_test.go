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

// TestGetHitAllocatesNothing pins the buffer hit path: a read of a
// resident page allocates nothing, with or without a ledger.
func TestGetHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for name, ledger := range map[string]*Ledger{"bare": nil, "ledger": new(Ledger)} {
		b, ids := residentBuffer(t, ledger)
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := b.Get(ids[i%len(ids)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: a resident Get allocates %.1f objects, want 0", name, allocs)
		}
	}
}

// BenchmarkGetHit is the per-layer number for one read of a resident page,
// round-robin over a full 10-slot buffer:
//
//   - bare: no ledger (what benchmark/'s pagestore.get_hit_ns times);
//   - ledger: wired as a tia factory wires a buffer — every read adds to
//     the one shared ledger;
//   - parallel: ledger from GOMAXPROCS goroutines, each on its own buffer
//     but all wired to the same ledger, as concurrent probes of one paged
//     factory would be; run with -cpu 1,2.
func BenchmarkGetHit(b *testing.B) {
	run := func(b *testing.B, buf *Buffer, ids []PageID) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buf.Get(ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		buf, ids := residentBuffer(b, nil)
		run(b, buf, ids)
	})
	var ledger Ledger
	b.Run("ledger", func(b *testing.B) {
		buf, ids := residentBuffer(b, &ledger)
		run(b, buf, ids)
	})
	b.Run("parallel", func(b *testing.B) {
		var failed atomic.Bool
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			buf, ids := residentBuffer(b, &ledger)
			for i := 0; pb.Next(); i++ {
				if _, err := buf.Get(ids[i%len(ids)]); err != nil {
					failed.Store(true)
					return
				}
			}
		})
		if failed.Load() {
			b.Fatal("Get failed on a resident page")
		}
	})
}
