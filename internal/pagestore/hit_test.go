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

// TestGetAcctHitAllocatesNothing pins the buffer hit path: a read of a
// resident page allocates nothing, with or without an acct.
func TestGetAcctHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var ledger Ledger
	b, ids := residentBuffer(t, &ledger)
	for name, acct := range map[string]*IOAcct{"unowned": nil, "acct": new(IOAcct)} {
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := b.GetAcct(ids[i%len(ids)], acct); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: a resident GetAcct allocates %.1f objects, want 0", name, allocs)
		}
	}
}

// BenchmarkGetAcctHit is the per-layer number for one read of a resident
// page, round-robin over a full 10-slot buffer:
//
//   - bare: no ledger, no acct (what benchmark/'s pagestore.get_hit_ns times);
//   - ledger: wired as a tia factory wires a buffer, the access unowned —
//     every read adds to the one shared ledger;
//   - ledger+acct: the same wiring with a query's acct, which is how
//     Scorer.aggregate reads — the ledger is not touched;
//   - parallel: ledger+acct from GOMAXPROCS goroutines, each on its own
//     buffer and acct but all wired to the same ledger. Nothing is shared
//     on this path, so ns/op at -cpu 2 should be about half of -cpu 1; run
//     with -cpu 1,2.
func BenchmarkGetAcctHit(b *testing.B) {
	run := func(b *testing.B, buf *Buffer, ids []PageID, acct *IOAcct) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buf.GetAcct(ids[i%len(ids)], acct); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		buf, ids := residentBuffer(b, nil)
		run(b, buf, ids, nil)
	})
	var ledger Ledger
	b.Run("ledger", func(b *testing.B) {
		buf, ids := residentBuffer(b, &ledger)
		run(b, buf, ids, nil)
	})
	b.Run("ledger+acct", func(b *testing.B) {
		buf, ids := residentBuffer(b, &ledger)
		run(b, buf, ids, new(IOAcct))
	})
	b.Run("parallel", func(b *testing.B) {
		var failed atomic.Bool
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			buf, ids := residentBuffer(b, &ledger)
			acct := new(IOAcct)
			for i := 0; pb.Next(); i++ {
				if _, err := buf.GetAcct(ids[i%len(ids)], acct); err != nil {
					failed.Store(true)
					return
				}
			}
		})
		if failed.Load() {
			b.Fatal("GetAcct failed on a resident page")
		}
	})
}
