package pagestore

import (
	"container/list"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// opLog records the physical operations that reach the file: "R<id>" and
// "W<id>", in order.
type opLog struct {
	File
	ops []string
}

func (f *opLog) ReadPage(id PageID, buf []byte) error {
	f.ops = append(f.ops, fmt.Sprintf("R%d", id))
	return f.File.ReadPage(id, buf)
}

func (f *opLog) WritePage(id PageID, data []byte) error {
	f.ops = append(f.ops, fmt.Sprintf("W%d", id))
	return f.File.WritePage(id, data)
}

// refBuffer is the reference the slot-array Buffer is checked against: the
// textbook write-back LRU pool, a map for residency and a list for recency
// (front = most recently used). It predicts what each operation does to the
// statistics, to the set of buffered pages and to the file.
type refBuffer struct {
	slots int
	pages map[PageID]*list.Element // resident pages
	lru   *list.List               // of *refFrame
	disk  map[PageID]byte          // seed of every live page's content on file
	stats Stats
	ops   []string
}

type refFrame struct {
	id    PageID
	seed  byte
	dirty bool
}

func newRefBuffer(slots int) *refBuffer {
	return &refBuffer{slots: slots, pages: map[PageID]*list.Element{}, lru: list.New(), disk: map[PageID]byte{}}
}

func (m *refBuffer) evict() {
	el := m.lru.Back()
	fr := el.Value.(*refFrame)
	if fr.dirty {
		m.disk[fr.id] = fr.seed
		m.ops = append(m.ops, fmt.Sprintf("W%d", fr.id))
		m.stats.PhysicalWrites++
	}
	m.lru.Remove(el)
	delete(m.pages, fr.id)
	m.stats.Evictions++
}

// load makes id resident and most recently used, reporting whether it
// already was.
func (m *refBuffer) load(id PageID, read bool) (*refFrame, bool) {
	if el, ok := m.pages[id]; ok {
		m.lru.MoveToFront(el)
		return el.Value.(*refFrame), true
	}
	for m.lru.Len() >= m.slots {
		m.evict()
	}
	fr := &refFrame{id: id}
	if read {
		fr.seed = m.disk[id]
		m.ops = append(m.ops, fmt.Sprintf("R%d", id))
	}
	m.pages[id] = m.lru.PushFront(fr)
	return fr, false
}

func (m *refBuffer) get(id PageID) (seed byte, hit bool) {
	m.stats.LogicalReads++
	if m.slots == 0 {
		m.ops = append(m.ops, fmt.Sprintf("R%d", id))
		m.stats.PhysicalReads++
		return m.disk[id], false
	}
	fr, hit := m.load(id, true)
	if !hit {
		m.stats.PhysicalReads++
	}
	return fr.seed, hit
}

func (m *refBuffer) put(id PageID, seed byte) {
	m.stats.LogicalWrites++
	if m.slots == 0 {
		m.disk[id] = seed
		m.ops = append(m.ops, fmt.Sprintf("W%d", id))
		m.stats.PhysicalWrites++
		return
	}
	fr, _ := m.load(id, false)
	fr.seed, fr.dirty = seed, true
}

func (m *refBuffer) free(id PageID) {
	if el, ok := m.pages[id]; ok {
		m.lru.Remove(el)
		delete(m.pages, id)
	}
	delete(m.disk, id)
}

func (m *refBuffer) drop() {
	m.pages = map[PageID]*list.Element{}
	m.lru.Init()
}

// flush returns the pages written back (the Buffer's order among them is
// its slot order, which the reference does not model).
func (m *refBuffer) flush() []string {
	var written []string
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if fr := el.Value.(*refFrame); fr.dirty {
			m.disk[fr.id] = fr.seed
			fr.dirty = false
			written = append(written, fmt.Sprintf("W%d", fr.id))
			m.stats.PhysicalWrites++
		}
	}
	return written
}

func (m *refBuffer) resident() []PageID {
	ids := make([]PageID, 0, len(m.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// resident lists the pages in b's slots, ascending.
func (b *Buffer) residentIDs() []PageID {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ids []PageID
	for _, fr := range b.frames {
		if fr != nil {
			ids = append(ids, fr.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func seeded(seed byte, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = seed + byte(i)
	}
	return data
}

// TestBufferAgainstModel drives the Buffer and the map+list reference with
// the same random operations — reads, writes, Alloc, Free, Drop, Flush,
// over buffers of 0/1/3/10/100 slots — and after every operation requires
// the same hit or miss, the same bytes, the same physical reads and
// write-backs in the same order (so the same eviction victims), the same
// buffered set and the same Stats. All the buffers count into one ledger,
// which after every operation must total the Stats of the buffers wired to
// it.
func TestBufferAgainstModel(t *testing.T) {
	const pageSize = 32
	slotChoices := []int{0, 1, 3, 10, 100}
	var ledger Ledger
	var retired Stats // of the earlier seeds' buffers
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		file := &opLog{File: NewMemFile(pageSize)}
		slots := slotChoices[seed%int64(len(slotChoices))]
		b := NewBufferWithLedger(file, slots, &ledger)
		m := newRefBuffer(slots)
		var live []PageID
		for step := 0; step < 1500; step++ {
			desc := ""
			flushed := []string(nil)
			switch op := r.Intn(100); {
			case op < 8 || len(live) == 0:
				id, err := b.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				// A fresh page reads as zeros, which no seed produces: give
				// it content both sides know, behind the buffer's back.
				if err := file.File.WritePage(id, seeded(0, pageSize)); err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
				m.disk[id] = 0
				desc = fmt.Sprintf("alloc %d", id)
			case op < 55:
				id := live[r.Intn(len(live))]
				before := ledger.Stats()
				data, err := b.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				want, wantHit := m.get(id)
				gotHit := ledger.Stats().Sub(before).PhysicalReads == 0
				desc = fmt.Sprintf("get %d", id)
				if gotHit != wantHit {
					t.Fatalf("seed %d step %d (%s): hit = %v, reference says %v", seed, step, desc, gotHit, wantHit)
				}
				if string(data) != string(seeded(want, pageSize)) {
					t.Fatalf("seed %d step %d (%s): wrong bytes (want seed %d)", seed, step, desc, want)
				}
			case op < 80:
				id := live[r.Intn(len(live))]
				s := byte(1 + r.Intn(200))
				if err := b.Put(id, seeded(s, pageSize)); err != nil {
					t.Fatal(err)
				}
				m.put(id, s)
				desc = fmt.Sprintf("put %d", id)
			case op < 85:
				i := r.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := b.Free(id); err != nil {
					t.Fatal(err)
				}
				m.free(id)
				desc = fmt.Sprintf("free %d", id)
			case op < 88:
				b.Drop()
				m.drop()
				desc = "drop"
			default:
				mark := len(file.ops)
				if err := b.Flush(); err != nil {
					t.Fatal(err)
				}
				flushed = m.flush()
				// Same pages written back; compare them as sets, then let
				// the ordered comparison below see the reference's order.
				got := append([]string(nil), file.ops[mark:]...)
				sort.Strings(got)
				want := append([]string(nil), flushed...)
				sort.Strings(want)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d (flush): wrote %v, reference %v", seed, step, got, want)
				}
				file.ops = append(file.ops[:mark], flushed...)
				m.ops = append(m.ops, flushed...)
				desc = "flush"
			}
			if fmt.Sprint(file.ops) != fmt.Sprint(m.ops) {
				t.Fatalf("seed %d step %d (%s): file saw %v, reference %v", seed, step, desc, file.ops, m.ops)
			}
			file.ops, m.ops = file.ops[:0], m.ops[:0]
			if got, want := b.residentIDs(), m.resident(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d (%s): buffered %v, reference %v", seed, step, desc, got, want)
			}
			if got, want := ledger.Stats(), retired.Add(m.stats); got != want {
				t.Fatalf("seed %d step %d (%s): ledger %+v, reference %+v", seed, step, desc, got, want)
			}
		}
		// Nothing lost: after a flush the file holds what the reference says.
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		m.flush()
		buf := make([]byte, pageSize)
		for _, id := range live {
			if err := file.File.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			if string(buf) != string(seeded(m.disk[id], pageSize)) {
				t.Fatalf("seed %d: page %d on file differs from the reference (seed %d)", seed, id, m.disk[id])
			}
		}
		retired = retired.Add(m.stats)
		if got := ledger.Stats(); got != retired {
			t.Fatalf("seed %d: ledger after the final flush %+v, reference %+v", seed, got, retired)
		}
	}
}

// TestBufferHitsRaceEviction has readers hitting a few hot pages while one
// goroutine keeps faulting other pages in (evicting) and another keeps
// reading the ledger. Hits must never return another page's bytes, no
// reading of the ledger may see a count go back, and the accounting must
// stay conserved. Run with -race.
func TestBufferHitsRaceEviction(t *testing.T) {
	const (
		pageSize = 64
		hot      = 3
		cold     = 12
		readers  = 4
		iters    = 3000
	)
	var ledger Ledger
	b := NewBufferWithLedger(NewMemFile(pageSize), 6, &ledger)
	ids := make([]PageID, hot+cold)
	for i := range ids {
		id, err := b.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Put(id, seeded(byte(10*(i+1)), pageSize)); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	base := ledger.Stats()

	read := func(i int) error {
		data, err := b.Get(ids[i])
		if err != nil {
			return err
		}
		if string(data) != string(seeded(byte(10*(i+1)), pageSize)) {
			return fmt.Errorf("page %d came back with another page's bytes", ids[i])
		}
		return nil
	}
	var gets [readers + 1]int64
	errs := make(chan error, readers+2)
	stop := make(chan struct{})
	var wg, bg sync.WaitGroup
	for w := 0; w < readers; w++ {
		w := w
		wg.Add(1)
		go func() { // hot-page readers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := read((w + i) % hot); err != nil {
					errs <- err
					return
				}
				gets[w]++
			}
		}()
	}
	bg.Add(2)
	go func() { // miss-driven evictions
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := read(hot + i%cold); err != nil {
				errs <- err
				return
			}
			gets[readers]++
		}
	}()
	go func() { // a scraper: no count goes back
		defer bg.Done()
		last := base
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := ledger.Stats()
			if now.Hits() < last.Hits() || now.Misses() < last.Misses() || now.Evictions < last.Evictions {
				errs <- fmt.Errorf("ledger went from %+v back to %+v", last, now)
				return
			}
			last = now
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	delta := ledger.Stats().Sub(base)
	var want int64
	for _, n := range gets {
		want += n
	}
	if delta.LogicalReads != want {
		t.Errorf("LogicalReads = %d, want %d (one per Get)", delta.LogicalReads, want)
	}
	if delta.Evictions != delta.Misses() {
		t.Errorf("%d evictions, want one per miss (%d) of the full buffer", delta.Evictions, delta.Misses())
	}
	if delta.Evictions == 0 {
		t.Error("no evictions: the test created no buffer pressure")
	}
}
