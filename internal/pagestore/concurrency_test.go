package pagestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestBufferConcurrentHammer drives one small Buffer from many goroutines —
// reads of shared pages, reads and write-backs of per-worker pages, constant
// eviction pressure from the tiny slot count — and checks, with the race
// detector as the memory-safety referee, that the ledger counts every
// access exactly once and no write-back is lost.
func TestBufferConcurrentHammer(t *testing.T) {
	const (
		workers  = 8
		iters    = 400
		slots    = 4 // far fewer than the working set: every miss evicts
		pageSize = 64
		sharedN  = 6 // read-only pages touched by everyone
		ownedN   = 3 // read-write pages per worker, disjoint ownership
	)
	f := NewMemFile(pageSize)
	var ledger Ledger
	b := NewBufferWithLedger(f, slots, &ledger)

	pattern := func(seed byte) []byte {
		data := make([]byte, pageSize)
		for i := range data {
			data[i] = seed + byte(i)
		}
		return data
	}

	shared := make([]PageID, sharedN)
	for i := range shared {
		id, err := b.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = id
		if err := b.Put(id, pattern(byte(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	var owned [workers][ownedN]PageID
	for w := 0; w < workers; w++ {
		for i := 0; i < ownedN; i++ {
			id, err := b.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			owned[w][i] = id
			if err := b.Put(id, pattern(0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	base := ledger.Stats()

	finals := make([][ownedN]byte, workers) // each worker's last-written seeds
	var gets, puts [workers]int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			last := make([]byte, ownedN) // seed of the last value written per owned page
			for i := 0; i < iters; i++ {
				switch op := r.Intn(10); {
				case op < 4: // read a shared, read-only page
					k := r.Intn(sharedN)
					data, err := b.Get(shared[k])
					if err != nil {
						errs <- err
						return
					}
					gets[w]++
					if !bytes.Equal(data, pattern(byte(100+k))) {
						errs <- fmt.Errorf("worker %d: shared page %d corrupted", w, k)
						return
					}
				case op < 7: // read one of our own pages
					k := r.Intn(ownedN)
					data, err := b.Get(owned[w][k])
					if err != nil {
						errs <- err
						return
					}
					gets[w]++
					if !bytes.Equal(data, pattern(last[k])) {
						errs <- fmt.Errorf("worker %d: owned page %d lost a write (seed %d)", w, k, last[k])
						return
					}
				default: // overwrite one of our own pages
					k := r.Intn(ownedN)
					last[k] = byte(1 + r.Intn(90))
					if err := b.Put(owned[w][k], pattern(last[k])); err != nil {
						errs <- err
						return
					}
					puts[w]++
				}
			}
			// Park the final values (disjoint index per worker) so the main
			// goroutine can verify the flushed file.
			copy(finals[w][:], last)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Conservation: the ledger's traffic since the baseline is one read per
	// Get and one write per Put of all the workers.
	delta := ledger.Stats().Sub(base)
	var wantReads, wantWrites int64
	for w := 0; w < workers; w++ {
		wantReads += gets[w]
		wantWrites += puts[w]
	}
	if delta.LogicalReads != wantReads {
		t.Errorf("LogicalReads = %d, want %d (one per Get)", delta.LogicalReads, wantReads)
	}
	if delta.LogicalWrites != wantWrites {
		t.Errorf("LogicalWrites = %d, want %d (one per Put)", delta.LogicalWrites, wantWrites)
	}
	if delta.Hits()+delta.Misses() != delta.LogicalReads {
		t.Errorf("hits %d + misses %d != logical reads %d", delta.Hits(), delta.Misses(), delta.LogicalReads)
	}
	// Every eviction is a side effect of faulting a page in, which is either
	// a read miss or a Put to a non-resident page.
	if delta.Evictions > delta.PhysicalReads+delta.LogicalWrites {
		t.Errorf("evictions %d exceed possible faults (%d misses + %d puts)",
			delta.Evictions, delta.PhysicalReads, delta.LogicalWrites)
	}
	if delta.Evictions == 0 {
		t.Error("no evictions: the hammer did not create buffer pressure")
	}

	// No lost write-backs: after a flush the file holds each page's final
	// value.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	for k, id := range shared {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pattern(byte(100+k))) {
			t.Errorf("shared page %d corrupted on disk", k)
		}
	}
	for w := 0; w < workers; w++ {
		for k := 0; k < ownedN; k++ {
			if err := f.ReadPage(owned[w][k], buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, pattern(finals[w][k])) {
				t.Errorf("worker %d page %d: disk content does not match last write (seed %d)",
					w, k, finals[w][k])
			}
		}
	}
}

// TestBufferConcurrentReadsSamePage checks the documented guarantee that
// concurrent readers of the same page are safe and all see the same bytes.
func TestBufferConcurrentReadsSamePage(t *testing.T) {
	f := NewMemFile(32)
	var ledger Ledger
	b := NewBufferWithLedger(f, 2, &ledger)
	id, err := b.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 32)
	if err := b.Put(id, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				data, err := b.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(data, want) {
					errs <- fmt.Errorf("reader saw wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := ledger.Stats(); s.Hits() < 8*200-2 {
		t.Errorf("expected nearly all hits, got %+v", s)
	}
}
