package pagestore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func testFileBasics(t *testing.T, f File) {
	t.Helper()
	ps := f.PageSize()
	id1, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 || id1 == InvalidPage || id2 == InvalidPage {
		t.Fatalf("bad ids %d %d", id1, id2)
	}
	if f.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", f.NumPages())
	}

	data := make([]byte, ps)
	for i := range data {
		data[i] = byte(i)
	}
	if err := f.WritePage(id1, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ps)
	if err := f.ReadPage(id1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
	// Fresh page must be zeroed.
	if err := f.ReadPage(id2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, ps)) {
		t.Fatal("fresh page not zeroed")
	}

	// Free and reuse.
	if err := f.Free(id1); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 1 {
		t.Fatalf("NumPages after free = %d, want 1", f.NumPages())
	}
	if err := f.ReadPage(id1, got); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("read of freed page: err=%v, want ErrPageBounds", err)
	}
	id3, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("freed page not reused: got %d, want %d", id3, id1)
	}
	// Reused page must be zeroed again.
	if err := f.ReadPage(id3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, ps)) {
		t.Fatal("reused page not zeroed")
	}

	if err := f.ReadPage(InvalidPage, got); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("read invalid page: err=%v", err)
	}
	if err := f.ReadPage(PageID(999), got); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("read out-of-range page: err=%v", err)
	}
}

func TestMemFileBasics(t *testing.T) {
	testFileBasics(t, NewMemFile(128))
}

func TestBufferHitAndMiss(t *testing.T) {
	f := NewMemFile(64)
	var ledger Ledger
	b := NewBufferWithLedger(f, 2, &ledger)
	id, _ := b.Alloc()
	data := bytes.Repeat([]byte{7}, 64)
	if err := b.Put(id, data); err != nil {
		t.Fatal(err)
	}
	// Two reads of a buffered page: zero physical reads.
	for i := 0; i < 2; i++ {
		got, err := b.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("mismatch")
		}
	}
	s := ledger.Stats()
	if s.LogicalReads != 2 || s.PhysicalReads != 0 {
		t.Errorf("stats = %+v, want 2 logical / 0 physical reads", s)
	}
	if s.PhysicalWrites != 0 {
		t.Errorf("write-back should defer writes, got %+v", s)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := ledger.Stats(); s.PhysicalWrites != 1 {
		t.Errorf("after flush physical writes = %d, want 1", s.PhysicalWrites)
	}
	// Underlying file must now hold the data.
	raw := make([]byte, 64)
	if err := f.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, data) {
		t.Fatal("flush did not reach file")
	}
}

func TestBufferEviction(t *testing.T) {
	f := NewMemFile(32)
	var ledger Ledger
	b := NewBufferWithLedger(f, 2, &ledger)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := b.Alloc()
		ids = append(ids, id)
		page := bytes.Repeat([]byte{byte(i + 1)}, 32)
		if err := b.Put(id, page); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2: writing the third page evicted the first (dirty -> one
	// physical write).
	if s := ledger.Stats(); s.PhysicalWrites != 1 {
		t.Errorf("physical writes = %d, want 1 (eviction)", s.PhysicalWrites)
	}
	// Reading the evicted page is a miss.
	before := ledger.Stats().PhysicalReads
	got, err := b.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("evicted page content lost: %d", got[0])
	}
	if ledger.Stats().PhysicalReads != before+1 {
		t.Error("expected one physical read for evicted page")
	}
}

func TestBufferZeroSlots(t *testing.T) {
	f := NewMemFile(32)
	var ledger Ledger
	b := NewBufferWithLedger(f, 0, &ledger)
	id, _ := b.Alloc()
	data := bytes.Repeat([]byte{3}, 32)
	if err := b.Put(id, data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	s := ledger.Stats()
	if s.PhysicalReads != 5 || s.PhysicalWrites != 1 {
		t.Errorf("pass-through stats = %+v", s)
	}
}

func TestBufferLRUOrder(t *testing.T) {
	f := NewMemFile(16)
	var ledger Ledger
	b := NewBufferWithLedger(f, 2, &ledger)
	a, _ := b.Alloc()
	c, _ := b.Alloc()
	d, _ := b.Alloc()
	one := bytes.Repeat([]byte{1}, 16)
	b.Put(a, one)
	b.Put(c, one)
	// Touch a so that c becomes LRU.
	if _, err := b.Get(a); err != nil {
		t.Fatal(err)
	}
	b.Put(d, one) // evicts c
	base := ledger.Stats()
	if _, err := b.Get(a); err != nil {
		t.Fatal(err)
	}
	if ledger.Stats().Sub(base).PhysicalReads != 0 {
		t.Error("a should still be cached")
	}
	if _, err := b.Get(c); err != nil {
		t.Fatal(err)
	}
	if ledger.Stats().Sub(base).PhysicalReads != 1 {
		t.Error("c should have been evicted")
	}
}

func TestBufferFreeDropsFrame(t *testing.T) {
	f := NewMemFile(16)
	b := NewBuffer(f, 4)
	id, _ := b.Alloc()
	b.Put(id, make([]byte, 16))
	if err := b.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(id); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("get freed page err = %v", err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{1, 2, 3, 4, 5}
	b := Stats{10, 20, 30, 40, 50}
	got := a.Add(b)
	want := Stats{11, 22, 33, 44, 55}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got.Accesses() != 22+44 {
		t.Errorf("Accesses = %d", got.Accesses())
	}
}

// Randomized model check: a buffered file behaves exactly like a map of
// page contents, for random interleavings of put/get/alloc/free.
func TestBufferModelCheck(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := NewMemFile(8)
	b := NewBuffer(f, 3)
	model := map[PageID][]byte{}
	var live []PageID
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(10); {
		case op < 3 || len(live) == 0: // alloc
			id, err := b.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			model[id] = make([]byte, 8)
			live = append(live, id)
		case op < 6: // put
			id := live[r.Intn(len(live))]
			page := make([]byte, 8)
			r.Read(page)
			if err := b.Put(id, page); err != nil {
				t.Fatal(err)
			}
			model[id] = page
		case op < 9: // get
			id := live[r.Intn(len(live))]
			got, err := b.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model[id]) {
				t.Fatalf("step %d: page %d mismatch", step, id)
			}
		default: // free
			i := r.Intn(len(live))
			id := live[i]
			if err := b.Free(id); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
			live = append(live[:i], live[i+1:]...)
		}
	}
	// Final flush then verify everything via the raw file.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for id, want := range model {
		got := make([]byte, 8)
		if err := f.ReadPage(id, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d not durable", id)
		}
	}
}
