package pagestore

import "testing"

// TestLedgerUnownedTraffic drives one buffer with unowned traffic, forcing
// evictions and dirty write-backs, and checks every conservation identity:
// ledger total == buffer stats == the events the accesses caused, with the
// dirty evictions split out.
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
	if got := b.Stats(); got != want {
		t.Fatalf("buffer stats %+v, want %+v", got, want)
	}
	if got := ledger.Stats(); got != want {
		t.Fatalf("ledger total %+v != buffer stats %+v", got, want)
	}
	if got := ledger.DirtyEvictions(); got != 1 {
		t.Errorf("%d dirty evictions, want 1 of the 2", got)
	}
}

// TestLedgerSharedBuffers checks the aggregate identity when one ledger is
// shared by several buffers, a pass-through one among them: the sum of the
// buffers' own Stats equals the ledger total.
func TestLedgerSharedBuffers(t *testing.T) {
	f := NewMemFile(64)
	var ledger Ledger
	b1 := NewBufferWithLedger(f, 1, &ledger)
	b2 := NewBufferWithLedger(f, 1, &ledger)
	b3 := NewBufferWithLedger(f, 0, &ledger) // pass-through
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
	if err := b1.Flush(); err != nil { // unowned physical writes
		t.Fatal(err)
	}
	sum := b1.Stats().Add(b2.Stats()).Add(b3.Stats())
	if got := ledger.Stats(); got != sum {
		t.Fatalf("ledger total %+v != summed buffer stats %+v", got, sum)
	}
	if d := ledger.Stats().Sub(sum); (d != Stats{}) {
		t.Errorf("Sub = %+v, want zero", d)
	}
	if got, want := b3.Stats(), (Stats{LogicalReads: 4, PhysicalReads: 4, LogicalWrites: 4, PhysicalWrites: 4}); got != want {
		t.Errorf("pass-through stats = %+v, want %+v", got, want)
	}
}

// TestLedgerAddAcct checks the owned half of the rule: traffic carrying an
// acct — the eviction and dirty write-back it forces included — stays out
// of the ledger until the owner adds the acct, and then arrives with the
// clean/dirty split intact.
func TestLedgerAddAcct(t *testing.T) {
	f := NewMemFile(64)
	var ledger Ledger
	b := NewBufferWithLedger(f, 1, &ledger)
	var ids [3]PageID
	for i := range ids {
		ids[i], _ = b.Alloc()
	}
	data := make([]byte, 64)
	if err := b.Put(ids[0], data); err != nil { // unowned: one dirty frame
		t.Fatal(err)
	}
	setup := ledger.Stats()

	var acct IOAcct
	if _, err := b.GetAcct(ids[1], &acct); err != nil { // miss, evicts dirty ids[0]
		t.Fatal(err)
	}
	if _, err := b.GetAcct(ids[1], &acct); err != nil { // hit
		t.Fatal(err)
	}
	if err := b.PutAcct(ids[2], data, &acct); err != nil { // evicts clean ids[1]
		t.Fatal(err)
	}
	if got := ledger.Stats(); got != setup || ledger.DirtyEvictions() != 0 {
		t.Fatalf("owned traffic reached the ledger before the fold: %+v", got)
	}
	want := Stats{LogicalReads: 2, PhysicalReads: 1, LogicalWrites: 1, PhysicalWrites: 1, Evictions: 2}
	if acct.Stats != want || acct.DirtyEvictions != 1 {
		t.Fatalf("acct %+v (%d dirty), want %+v (1 dirty)", acct.Stats, acct.DirtyEvictions, want)
	}
	if got := acct.Stats.Add(setup); got != b.Stats() {
		t.Fatalf("acct + set-up %+v != buffer stats %+v", got, b.Stats())
	}

	ledger.AddAcct(&acct)
	if got, want := ledger.Stats(), b.Stats(); got != want {
		t.Fatalf("ledger total after the fold %+v != buffer stats %+v", got, want)
	}
	if got := ledger.DirtyEvictions(); got != 1 {
		t.Errorf("%d dirty evictions after the fold, want 1 of the 2", got)
	}
}
