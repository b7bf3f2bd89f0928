// Package pagestore implements the paged storage layer beneath the
// disk-resident temporal indexes (TIAs) of the TAR-tree.
//
// The experimental setup in the paper keeps the R-tree in memory while
// every TIA is disk based and "assigned a maximum of 10 buffer slots".
// This package provides exactly that machinery: a page file abstraction
// (with an in-memory simulated disk and an OS-file implementation), and a
// small per-index LRU buffer pool that counts logical and physical page
// accesses so experiments can report node accesses precisely.
package pagestore

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// PageID identifies a page within a File. Zero is never a valid page, so it
// can serve as a nil pointer inside page payloads.
type PageID uint32

// InvalidPage is the zero PageID; it never refers to a real page.
const InvalidPage PageID = 0

// ErrPageBounds is returned when a PageID does not refer to an allocated
// page.
var ErrPageBounds = errors.New("pagestore: page id out of bounds")

// File is a fixed-page-size random access storage device.
//
// Implementations must be safe for use by a single goroutine; callers that
// share a File across goroutines must synchronize externally (the Buffer
// type does so).
type File interface {
	// PageSize returns the size in bytes of every page.
	PageSize() int
	// Alloc reserves a new page (reusing freed pages when possible) and
	// returns its id. The page contents are zeroed.
	Alloc() (PageID, error)
	// ReadPage copies the content of page id into buf, which must be at
	// least PageSize bytes long.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores data (at least PageSize bytes) as the content of
	// page id.
	WritePage(id PageID, data []byte) error
	// Free releases page id for reuse.
	Free(id PageID) error
	// NumPages returns the number of currently allocated pages.
	NumPages() int
	// Close releases underlying resources.
	Close() error
}

// MemFile is an in-memory File: a simulated disk. It is the default backend
// for experiments because page accesses can be counted without paying for
// real I/O, mirroring how the paper reports node accesses as the
// machine-independent cost metric.
type MemFile struct {
	pageSize int
	pages    [][]byte // index = PageID-1; nil entry means freed
	free     []PageID
	n        int
}

// NewMemFile creates an in-memory page file with the given page size.
func NewMemFile(pageSize int) *MemFile {
	if pageSize <= 0 {
		panic("pagestore: page size must be positive")
	}
	return &MemFile{pageSize: pageSize}
}

// PageSize implements File.
func (f *MemFile) PageSize() int { return f.pageSize }

// Alloc implements File.
func (f *MemFile) Alloc() (PageID, error) {
	if n := len(f.free); n > 0 {
		id := f.free[n-1]
		f.free = f.free[:n-1]
		f.pages[id-1] = make([]byte, f.pageSize)
		f.n++
		return id, nil
	}
	f.pages = append(f.pages, make([]byte, f.pageSize))
	f.n++
	return PageID(len(f.pages)), nil
}

func (f *MemFile) page(id PageID) ([]byte, error) {
	if id == InvalidPage || int(id) > len(f.pages) || f.pages[id-1] == nil {
		return nil, fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	return f.pages[id-1], nil
}

// ReadPage implements File.
func (f *MemFile) ReadPage(id PageID, buf []byte) error {
	p, err := f.page(id)
	if err != nil {
		return err
	}
	copy(buf[:f.pageSize], p)
	return nil
}

// WritePage implements File.
func (f *MemFile) WritePage(id PageID, data []byte) error {
	p, err := f.page(id)
	if err != nil {
		return err
	}
	copy(p, data[:f.pageSize])
	return nil
}

// Free implements File.
func (f *MemFile) Free(id PageID) error {
	if _, err := f.page(id); err != nil {
		return err
	}
	f.pages[id-1] = nil
	f.free = append(f.free, id)
	f.n--
	return nil
}

// NumPages implements File.
func (f *MemFile) NumPages() int { return f.n }

// Close implements File.
func (f *MemFile) Close() error {
	f.pages = nil
	f.free = nil
	f.n = 0
	return nil
}

// OSFile is a File backed by a file on disk. Its free list lives in memory:
// the store is rebuilt from scratch each run, which matches how the
// experiments construct indexes.
type OSFile struct {
	f        *os.File
	pageSize int
	pages    int // allocated high-water mark
	freed    map[PageID]bool
	free     []PageID
}

// NewOSFile creates (truncating) a page file at path.
func NewOSFile(path string, pageSize int) (*OSFile, error) {
	if pageSize <= 0 {
		return nil, errors.New("pagestore: page size must be positive")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &OSFile{f: f, pageSize: pageSize, freed: make(map[PageID]bool)}, nil
}

// PageSize implements File.
func (f *OSFile) PageSize() int { return f.pageSize }

// Alloc implements File.
func (f *OSFile) Alloc() (PageID, error) {
	if n := len(f.free); n > 0 {
		id := f.free[n-1]
		f.free = f.free[:n-1]
		delete(f.freed, id)
		if err := f.WritePage(id, make([]byte, f.pageSize)); err != nil {
			return InvalidPage, err
		}
		return id, nil
	}
	f.pages++
	id := PageID(f.pages)
	if err := f.WritePage(id, make([]byte, f.pageSize)); err != nil {
		return InvalidPage, err
	}
	return id, nil
}

func (f *OSFile) check(id PageID) error {
	if id == InvalidPage || int(id) > f.pages || f.freed[id] {
		return fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	return nil
}

// ReadPage implements File.
func (f *OSFile) ReadPage(id PageID, buf []byte) error {
	if err := f.check(id); err != nil {
		return err
	}
	_, err := f.f.ReadAt(buf[:f.pageSize], int64(id-1)*int64(f.pageSize))
	return err
}

// WritePage implements File.
func (f *OSFile) WritePage(id PageID, data []byte) error {
	if id == InvalidPage || int(id) > f.pages {
		return fmt.Errorf("%w: %d", ErrPageBounds, id)
	}
	_, err := f.f.WriteAt(data[:f.pageSize], int64(id-1)*int64(f.pageSize))
	return err
}

// Free implements File.
func (f *OSFile) Free(id PageID) error {
	if err := f.check(id); err != nil {
		return err
	}
	f.freed[id] = true
	f.free = append(f.free, id)
	return nil
}

// NumPages implements File.
func (f *OSFile) NumPages() int { return f.pages - len(f.free) }

// Close implements File.
func (f *OSFile) Close() error { return f.f.Close() }

// Stats counts page traffic through a Buffer. Logical counts include buffer
// hits; physical counts are actual File operations, i.e. the disk accesses
// the paper's experiments report.
type Stats struct {
	LogicalReads   int64
	PhysicalReads  int64
	LogicalWrites  int64
	PhysicalWrites int64
	// Evictions counts frames pushed out of the buffer to make room
	// (dirty evictions additionally count one physical write).
	Evictions int64
}

// Hits returns the reads served from the buffer without touching the file.
func (s Stats) Hits() int64 { return s.LogicalReads - s.PhysicalReads }

// Misses returns the reads that had to reach the file.
func (s Stats) Misses() int64 { return s.PhysicalReads }

// Accesses returns the number of physical page reads and writes combined.
func (s Stats) Accesses() int64 { return s.PhysicalReads + s.PhysicalWrites }

// Add returns the component-wise sum of s and t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		LogicalReads:   s.LogicalReads + t.LogicalReads,
		PhysicalReads:  s.PhysicalReads + t.PhysicalReads,
		LogicalWrites:  s.LogicalWrites + t.LogicalWrites,
		PhysicalWrites: s.PhysicalWrites + t.PhysicalWrites,
		Evictions:      s.Evictions + t.Evictions,
	}
}

// Sub returns s − t component-wise.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		LogicalReads:   s.LogicalReads - t.LogicalReads,
		PhysicalReads:  s.PhysicalReads - t.PhysicalReads,
		LogicalWrites:  s.LogicalWrites - t.LogicalWrites,
		PhysicalWrites: s.PhysicalWrites - t.PhysicalWrites,
		Evictions:      s.Evictions - t.Evictions,
	}
}

type frame struct {
	id   PageID
	data []byte
	// dirty is guarded by the buffer's exclusive lock: only writers, evict
	// and Flush look at it.
	dirty bool
	// used is the frame's last-access stamp from the buffer's logical
	// clock; the eviction victim is the frame with the minimum stamp.
	// Stamps are unique (the clock only counts up), so this is exact LRU.
	// Atomic because buffer hits stamp it without any lock.
	used atomic.Int64
}

// inlineSlots is the number of slots a Buffer carries inside itself: the
// paper's per-TIA budget, which is what every TIA buffer of a serving tree
// has. Only the buffer-size ablation configures more.
const inlineSlots = 10

// overflow holds the slots beyond inlineSlots.
type overflow struct {
	ids    []atomic.Uint32
	frames []atomic.Pointer[frame]
}

// match returns the frame in cell if it is page id's, else nil: a slot that
// changed under a lock-free reader holds nil or another page's frame.
func match(cell *atomic.Pointer[frame], id PageID) *frame {
	if fr := cell.Load(); fr != nil && fr.id == id {
		return fr
	}
	return nil
}

// Buffer is a write-back LRU buffer pool over a File. Each TIA owns a
// Buffer with a small number of slots (10 in the paper's setup; zero slots
// makes the buffer a pass-through so every access is physical, as in the
// collective-processing experiments).
//
// The buffered pages sit in a slot array: ids[i] is the page in slot i
// (InvalidPage when the slot is free) and frames[i] its frame. A TIA holds
// one to three pages and the paper's setup caps a buffer at 10 slots, so
// scanning a cache line of ids beats hashing them — and with the ids, the
// clock and the first frame pointers at the head of the Buffer itself, a
// hit reads one cache line of the Buffer and then the frame, with no
// pointer to chase in between.
//
// A Buffer is safe for concurrent use. A buffer hit takes no lock: it scans
// the ids, ticks the buffer's clock and stamps the frame — every write
// lands in the Buffer or the frame, none in memory shared with other
// buffers when the access carries an IOAcct (see IOTag.Acct). Misses,
// writes, eviction and maintenance take the exclusive lock and change slots
// one atomic store at a time: a slot is filled frame first, id second, and
// emptied id first, frame second. A reader that matched an id therefore
// finds in the slot either that page's frame, or — when the slot changed
// under it — nil or the frame of another page, which it tells apart by the
// frame's own immutable id and treats as a miss; the miss path looks again
// under the lock, so the hit/miss accounting stays exact. Concurrent
// readers — including of the same page — are safe. Writers must not race
// readers of the same page: the returned Get slice aliases the frame. The
// TAR-tree upholds this by never mutating TIAs while queries run.
//
// Page traffic is counted once: in the buffer's own Stats, and beyond that
// in the IOAcct of the access when its tag carries one, else in the
// buffer's Ledger when it was built with one (see the count helpers).
type Buffer struct {
	// clock counts the logical accesses — every read that succeeded and
	// every write, hit or miss, buffered or pass-through — and hands each
	// its LRU stamp. One counter doing both jobs is what keeps a buffer hit
	// at two atomic writes (the tick and the frame's stamp): the logical
	// read count is clock − logical writes (see Buffer.Stats).
	clock  atomic.Int64
	ids    [inlineSlots]atomic.Uint32
	frames [inlineSlots]atomic.Pointer[frame]
	// more holds slots inlineSlots..slots-1; nil when there are none.
	more  atomic.Pointer[overflow]
	stats bufStats
	// ledger receives the traffic no IOAcct owns; nil for a buffer nobody
	// totals. Fixed at construction.
	ledger *Ledger
	mu     sync.Mutex
	file   File
	// slots is the number of slots, fixed at construction.
	slots int
	// Rounds the Buffer up to the allocator's 256-byte size class, whose
	// objects start on a cache line: the head above then is one line.
	_ [48]byte
}

// find returns the frame of page id, or nil when the page is not buffered.
func (b *Buffer) find(id PageID) *frame {
	for i := range b.ids {
		if PageID(b.ids[i].Load()) == id {
			return match(&b.frames[i], id)
		}
	}
	if m := b.more.Load(); m != nil {
		for i := range m.ids {
			if PageID(m.ids[i].Load()) == id {
				return match(&m.frames[i], id)
			}
		}
	}
	return nil
}

// slot returns the cells of slot i < slots. Callers hold mu.
func (b *Buffer) slot(i int) (*atomic.Uint32, *atomic.Pointer[frame]) {
	if i < inlineSlots {
		return &b.ids[i], &b.frames[i]
	}
	m := b.more.Load()
	return &m.ids[i-inlineSlots], &m.frames[i-inlineSlots]
}

// setSlot puts fr (nil to empty it) into slot i. Callers hold mu.
func (b *Buffer) setSlot(i int, fr *frame) {
	id, cell := b.slot(i)
	// Emptied id first, so a reader never matches the id of a slot whose
	// frame is already gone; filled frame first, for the same reason.
	id.Store(uint32(InvalidPage))
	cell.Store(fr)
	if fr != nil {
		id.Store(uint32(fr.id))
	}
}

// bufStats is Stats with atomic fields (Stats readers take no lock) and
// without the logical reads, which the buffer's clock counts.
type bufStats struct {
	physicalReads  atomic.Int64
	logicalWrites  atomic.Int64
	physicalWrites atomic.Int64
	evictions      atomic.Int64
}

// NewBuffer creates a buffer pool with the given number of slots over f.
func NewBuffer(f File, slots int) *Buffer {
	return NewBufferWithLedger(f, slots, nil)
}

// NewBufferWithLedger creates a buffer pool that counts the traffic no
// IOAcct owns into ledger, which may be shared by many buffers (nil: none).
func NewBufferWithLedger(f File, slots int, ledger *Ledger) *Buffer {
	if slots < 0 {
		panic("pagestore: negative slot count")
	}
	b := &Buffer{file: f, slots: slots, ledger: ledger}
	if n := slots - inlineSlots; n > 0 {
		b.more.Store(&overflow{ids: make([]atomic.Uint32, n), frames: make([]atomic.Pointer[frame], n)})
	}
	return b
}

// File returns the underlying page file.
func (b *Buffer) File() File { return b.file }

// PageSize returns the page size of the underlying file.
func (b *Buffer) PageSize() int { return b.file.PageSize() }

// The count helpers apply the one accounting rule: the buffer's own stats
// see every event (the caller has ticked the clock for the logical access
// itself); beyond that an event is counted exactly once more — in the
// IOAcct on its tag, plain fields of a value only the owning query touches,
// which the owner adds to the ledger in bulk (Ledger.AddAcct), or, for
// traffic without an owner, in the buffer's ledger on the spot. They run
// with or without the lock held, so everything they touch is atomic or
// owned by a single query (the acct).
func (b *Buffer) countRead(tag IOTag, hit bool) {
	if !hit {
		b.stats.physicalReads.Add(1)
	}
	if a := tag.Acct; a != nil {
		a.read(tag, hit)
	} else if b.ledger != nil {
		b.ledger.read(tag, hit)
	}
}

func (b *Buffer) countWrite(tag IOTag, physical bool) {
	if physical {
		b.stats.physicalWrites.Add(1)
	} else {
		b.stats.logicalWrites.Add(1)
	}
	if a := tag.Acct; a != nil {
		a.write(tag, physical)
	} else if b.ledger != nil {
		b.ledger.write(tag, physical)
	}
}

func (b *Buffer) countEviction(tag IOTag, dirty bool) {
	b.stats.evictions.Add(1)
	if a := tag.Acct; a != nil {
		a.evicted(tag, dirty)
	} else if b.ledger != nil {
		b.ledger.evicted(tag, dirty)
	}
}

// evict flushes and removes the least recently used frame, returning the
// slot it freed (-1 when nothing is buffered). The eviction (and any dirty
// write-back) is attributed to the tag of the access that forced it, since
// evicting is a side effect of loading another page. Callers hold the
// exclusive lock; slot counts are small (10 in the paper's setup), so the
// linear victim scan beats maintaining a list.
func (b *Buffer) evict(tag IOTag) (int, error) {
	v, victim := -1, (*frame)(nil)
	for i := 0; i < b.slots; i++ {
		_, cell := b.slot(i)
		if fr := cell.Load(); fr != nil && (victim == nil || fr.used.Load() < victim.used.Load()) {
			v, victim = i, fr
		}
	}
	if victim == nil {
		return -1, nil
	}
	if victim.dirty {
		if err := b.file.WritePage(victim.id, victim.data); err != nil {
			return -1, err
		}
		b.countWrite(tag, true)
	}
	b.setSlot(v, nil)
	b.countEviction(tag, victim.dirty)
	return v, nil
}

// load returns the frame for id, faulting it in (and evicting) as needed;
// stamping the frame is left to the caller, who ticks the clock. Callers
// hold the exclusive lock and have checked slots > 0.
func (b *Buffer) load(id PageID, readThrough bool, tag IOTag) (*frame, error) {
	if fr := b.find(id); fr != nil {
		return fr, nil
	}
	free := -1
	for i := 0; i < b.slots && free < 0; i++ {
		if _, cell := b.slot(i); cell.Load() == nil {
			free = i
		}
	}
	if free < 0 {
		var err error
		if free, err = b.evict(tag); err != nil {
			return nil, err
		}
	}
	fr := &frame{id: id, data: make([]byte, b.file.PageSize())}
	if readThrough {
		if err := b.file.ReadPage(id, fr.data); err != nil {
			return nil, err
		}
	}
	b.setSlot(free, fr)
	return fr, nil
}

// Get returns the content of page id. The returned slice is the frame's
// own bytes: callers must treat it as read-only. It stays valid after the
// call — an evicted frame is dropped, never recycled, so a reader holding
// one keeps the bytes it was given — and its content stays the page's as
// long as no writer runs (PutTag writes into the frame), which the TAR-tree
// guarantees while queries run. The B+-tree read path reads pages in place
// on the strength of this.
func (b *Buffer) Get(id PageID) ([]byte, error) {
	return b.GetTag(id, IOTag{})
}

// GetTag is Get with the attribution tag the access is counted under.
func (b *Buffer) GetTag(id PageID, tag IOTag) ([]byte, error) {
	// Fast path: a buffer hit takes no lock and, with an acct on the tag,
	// writes nothing but the buffer's clock, the frame's stamp and the acct.
	if fr := b.find(id); fr != nil {
		fr.used.Store(b.clock.Add(1))
		b.countRead(tag, true)
		return fr.data, nil
	}
	return b.getMiss(id, tag)
}

// getMiss is GetTag for a page the lock-free scan did not find.
func (b *Buffer) getMiss(id PageID, tag IOTag) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.slots == 0 {
		buf := make([]byte, b.file.PageSize())
		if err := b.file.ReadPage(id, buf); err != nil {
			return nil, err
		}
		b.clock.Add(1)
		b.countRead(tag, false)
		return buf, nil
	}
	// Re-check under the exclusive lock: a racing miss may have faulted
	// the page in between our scan and Lock.
	hit := b.find(id) != nil
	fr, err := b.load(id, true, tag)
	if err != nil {
		return nil, err
	}
	fr.used.Store(b.clock.Add(1))
	b.countRead(tag, hit)
	return fr.data, nil
}

// Put stores data as the content of page id. With buffering, the write is
// deferred until eviction or Flush (write-back); without slots it goes
// straight to the file.
func (b *Buffer) Put(id PageID, data []byte) error {
	return b.PutTag(id, data, IOTag{})
}

// PutTag is Put with the attribution tag the access is counted under.
func (b *Buffer) PutTag(id PageID, data []byte, tag IOTag) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	stamp := b.clock.Add(1) // before the write is counted: see Stats
	b.countWrite(tag, false)
	if b.slots == 0 {
		if err := b.file.WritePage(id, data); err != nil {
			return err
		}
		b.countWrite(tag, true)
		return nil
	}
	fr, err := b.load(id, false, tag)
	if err != nil {
		return err
	}
	fr.used.Store(stamp)
	copy(fr.data, data[:b.file.PageSize()])
	fr.dirty = true
	return nil
}

// Alloc reserves a new page in the underlying file.
func (b *Buffer) Alloc() (PageID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.file.Alloc()
}

// Free releases page id, dropping any buffered copy.
func (b *Buffer) Free(id PageID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < b.slots; i++ {
		if pid, _ := b.slot(i); PageID(pid.Load()) == id {
			b.setSlot(i, nil)
		}
	}
	return b.file.Free(id)
}

// Flush writes all dirty frames back to the file, in slot order.
func (b *Buffer) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < b.slots; i++ {
		_, cell := b.slot(i)
		if fr := cell.Load(); fr != nil && fr.dirty {
			if err := b.file.WritePage(fr.id, fr.data); err != nil {
				return err
			}
			b.countWrite(IOTag{}, true)
			fr.dirty = false
		}
	}
	return nil
}

// Drop discards all buffered frames without writing them back. It is meant
// for tests and for abandoning scratch indexes.
func (b *Buffer) Drop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < b.slots; i++ {
		b.setSlot(i, nil)
	}
}

// Stats returns the buffer's traffic since creation; readers that want a
// window subtract an earlier reading (Stats.Sub). The logical writes are
// loaded before the clock and every write ticks the clock before it is
// counted, so a reading racing a writer can overstate the reads by that one
// access but never understate them.
func (b *Buffer) Stats() Stats {
	writes := b.stats.logicalWrites.Load()
	return Stats{
		LogicalReads:   b.clock.Load() - writes,
		PhysicalReads:  b.stats.physicalReads.Load(),
		LogicalWrites:  writes,
		PhysicalWrites: b.stats.physicalWrites.Load(),
		Evictions:      b.stats.evictions.Load(),
	}
}
