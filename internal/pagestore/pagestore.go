// Package pagestore implements the paged storage layer beneath the
// disk-resident temporal indexes (TIAs) of the TAR-tree.
//
// The experimental setup in the paper keeps the R-tree in memory while
// every TIA is disk based and "assigned a maximum of 10 buffer slots".
// This package provides exactly that machinery: a page file abstraction
// with an in-memory simulated disk, and a small per-index LRU buffer pool
// that counts logical and physical page accesses so experiments can report
// node accesses precisely. Only the page shadow of a paged TIA reads
// through it — the experiments name one; a serving tree's TIAs are in
// memory and touch no page — while the accounting types (IOAcct,
// IOBreakdown, Ledger) are also what every query reports its I/O in.
package pagestore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
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

// MemFile is an in-memory File: a simulated disk. Page accesses are counted
// without paying for real I/O, mirroring how the paper reports node
// accesses as the machine-independent cost metric.
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
	id    PageID
	data  []byte
	dirty bool
	// used is the frame's last-access stamp from the buffer's clock; the
	// eviction victim is the frame with the least stamp. Stamps are unique
	// (the clock only counts up), so this is exact LRU.
	used int64
}

// Buffer is a write-back LRU buffer pool over a File. Each paged TIA owns a
// Buffer with a small number of slots (10 in the paper's setup; zero slots
// makes the buffer a pass-through so every access is physical, as in the
// collective-processing experiments).
//
// The buffered pages sit in a slot array, frames[i] nil when slot i is free.
// A TIA holds one to three pages and the paper caps a buffer at 10 slots, so
// scanning the slots beats hashing the ids, and the linear victim scan beats
// maintaining a list.
//
// A Buffer is safe for concurrent use: every access takes its one mutex.
// Writers must not race readers of the same page — the returned Get slice
// aliases the frame — which the TAR-tree upholds by never mutating TIAs while
// queries run.
//
// Page traffic is counted once: in the buffer's own Stats, and beyond that
// in the IOAcct of the access when its tag carries one, else in the
// buffer's Ledger when it was built with one (see the count helpers).
type Buffer struct {
	mu     sync.Mutex
	file   File
	frames []*frame
	clock  int64 // the latest LRU stamp handed out
	stats  Stats
	// ledger receives the traffic no IOAcct owns; nil for a buffer nobody
	// totals. Fixed at construction.
	ledger *Ledger
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
	return &Buffer{file: f, frames: make([]*frame, slots), ledger: ledger}
}

// PageSize returns the page size of the underlying file.
func (b *Buffer) PageSize() int { return b.file.PageSize() }

// The count helpers apply the one accounting rule: the buffer's own stats
// see every event; beyond that an event is counted exactly once more — in
// the IOAcct on its tag, plain fields of a value only the owning query
// touches, which the owner adds to the ledger in bulk (Ledger.AddAcct), or,
// for traffic without an owner, in the buffer's ledger on the spot. Callers
// hold mu.
func (b *Buffer) countRead(tag IOTag, hit bool) {
	b.stats.LogicalReads++
	if !hit {
		b.stats.PhysicalReads++
	}
	if a := tag.Acct; a != nil {
		a.read(tag, hit)
	} else if b.ledger != nil {
		b.ledger.read(tag, hit)
	}
}

func (b *Buffer) countWrite(tag IOTag, physical bool) {
	if physical {
		b.stats.PhysicalWrites++
	} else {
		b.stats.LogicalWrites++
	}
	if a := tag.Acct; a != nil {
		a.write(tag, physical)
	} else if b.ledger != nil {
		b.ledger.write(tag, physical)
	}
}

func (b *Buffer) countEviction(tag IOTag, dirty bool) {
	b.stats.Evictions++
	if a := tag.Acct; a != nil {
		a.evicted(tag, dirty)
	} else if b.ledger != nil {
		b.ledger.evicted(tag, dirty)
	}
}

// find returns the slot of page id, -1 when the page is not buffered.
func (b *Buffer) find(id PageID) int {
	for i, fr := range b.frames {
		if fr != nil && fr.id == id {
			return i
		}
	}
	return -1
}

// evict flushes and removes the least recently used frame of a full buffer,
// returning the slot it freed. The eviction (and any dirty write-back) is
// attributed to the tag of the access that forced it, since evicting is a
// side effect of loading another page. Callers hold mu.
func (b *Buffer) evict(tag IOTag) (int, error) {
	v := 0
	for i, fr := range b.frames {
		if fr.used < b.frames[v].used {
			v = i
		}
	}
	victim := b.frames[v]
	if victim.dirty {
		if err := b.file.WritePage(victim.id, victim.data); err != nil {
			return -1, err
		}
		b.countWrite(tag, true)
	}
	b.frames[v] = nil
	b.countEviction(tag, victim.dirty)
	return v, nil
}

// load returns the frame for id, faulting it in (and evicting) as needed,
// stamped as the buffer's latest access, and whether it was buffered
// already. Callers hold mu and have checked that the buffer has slots.
func (b *Buffer) load(id PageID, readThrough bool, tag IOTag) (*frame, bool, error) {
	b.clock++
	if i := b.find(id); i >= 0 {
		fr := b.frames[i]
		fr.used = b.clock
		return fr, true, nil
	}
	free := slices.Index(b.frames, nil)
	if free < 0 {
		var err error
		if free, err = b.evict(tag); err != nil {
			return nil, false, err
		}
	}
	fr := &frame{id: id, data: make([]byte, b.file.PageSize()), used: b.clock}
	if readThrough {
		if err := b.file.ReadPage(id, fr.data); err != nil {
			return nil, false, err
		}
	}
	b.frames[free] = fr
	return fr, false, nil
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
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.frames) == 0 {
		buf := make([]byte, b.file.PageSize())
		if err := b.file.ReadPage(id, buf); err != nil {
			return nil, err
		}
		b.countRead(tag, false)
		return buf, nil
	}
	fr, hit, err := b.load(id, true, tag)
	if err != nil {
		return nil, err
	}
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
	b.countWrite(tag, false)
	if len(b.frames) == 0 {
		if err := b.file.WritePage(id, data); err != nil {
			return err
		}
		b.countWrite(tag, true)
		return nil
	}
	fr, _, err := b.load(id, false, tag)
	if err != nil {
		return err
	}
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
	if i := b.find(id); i >= 0 {
		b.frames[i] = nil
	}
	return b.file.Free(id)
}

// Flush writes all dirty frames back to the file, in slot order.
func (b *Buffer) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, fr := range b.frames {
		if fr != nil && fr.dirty {
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
	clear(b.frames)
}

// Stats returns the buffer's traffic since creation; readers that want a
// window subtract an earlier reading (Stats.Sub).
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
