package pagestore

import "testing"

// TestLedgerUnownedTraffic drives one buffer, forcing evictions and dirty
// write-backs, and checks that its ledger counted exactly the events the
// accesses caused.
func TestLedgerUnownedTraffic(t *testing.T) {
	f := NewMemFile(64)
	var ledger Ledger
	b := NewBufferWithLedger(f, 2, &ledger)

	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := b.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	data := make([]byte, 64)

	// Two dirty pages fill the buffer.
	if err := b.Put(ids[0], data); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ids[1], data); err != nil {
		t.Fatal(err)
	}
	// Loading a third page evicts ids[0] (dirty) and writes it back.
	if _, err := b.Get(ids[2]); err != nil {
		t.Fatal(err)
	}
	// Three hits, then a miss that evicts the least recently used ids[2]
	// (clean).
	for _, id := range []PageID{ids[1], ids[2], ids[1], ids[3]} {
		if _, err := b.Get(id); err != nil {
			t.Fatal(err)
		}
	}

	want := Stats{LogicalReads: 5, PhysicalReads: 2, LogicalWrites: 2, PhysicalWrites: 1, Evictions: 2}
	if got := ledger.Stats(); got != want {
		t.Fatalf("ledger %+v, want %+v", got, want)
	}
}

// TestLedgerSharedBuffers checks the aggregate identity when one ledger is
// shared by several buffers, a pass-through one among them: the shared
// ledger totals what the same traffic counts in one ledger per buffer.
func TestLedgerSharedBuffers(t *testing.T) {
	drive := func(l1, l2, l3 *Ledger) {
		t.Helper()
		f := NewMemFile(64)
		b1 := NewBufferWithLedger(f, 1, l1)
		b2 := NewBufferWithLedger(f, 1, l2)
		b3 := NewBufferWithLedger(f, 0, l3) // pass-through
		data := make([]byte, 64)
		for i := 0; i < 4; i++ {
			id, err := b1.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := b1.Put(id, data); err != nil {
				t.Fatal(err)
			}
			if _, err := b2.Get(id); err != nil {
				t.Fatal(err)
			}
			if err := b3.Put(id, data); err != nil { // physical write
				t.Fatal(err)
			}
			if _, err := b3.Get(id); err != nil { // physical read
				t.Fatal(err)
			}
		}
		if err := b1.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var shared, own1, own2, own3 Ledger
	drive(&shared, &shared, &shared)
	drive(&own1, &own2, &own3)
	sum := own1.Stats().Add(own2.Stats()).Add(own3.Stats())
	if got := shared.Stats(); got != sum {
		t.Fatalf("shared ledger %+v != summed ledgers %+v", got, sum)
	}
	if d := shared.Stats().Sub(sum); (d != Stats{}) {
		t.Errorf("Sub = %+v, want zero", d)
	}
	if got, want := own3.Stats(), (Stats{LogicalReads: 4, PhysicalReads: 4, LogicalWrites: 4, PhysicalWrites: 4}); got != want {
		t.Errorf("pass-through stats = %+v, want %+v", got, want)
	}
}
