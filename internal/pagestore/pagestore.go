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
// memory and touch no page.
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

// Stats is a reading of a Ledger: the page traffic through its buffers.
// Logical counts include buffer hits; physical counts are actual File
// operations, i.e. the disk accesses the paper's experiments report.
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
// Page traffic is counted as it happens in the buffer's Ledger, if it was
// built with one.
type Buffer struct {
	mu     sync.Mutex
	file   File
	frames []*frame
	clock  int64   // the latest LRU stamp handed out
	ledger *Ledger // nil for a buffer nobody totals; fixed at construction
}

// NewBuffer creates a buffer pool with the given number of slots over f,
// counting its traffic nowhere.
func NewBuffer(f File, slots int) *Buffer {
	return NewBufferWithLedger(f, slots, nil)
}

// NewBufferWithLedger creates a buffer pool that counts its traffic into
// ledger, which may be shared by many buffers (nil: none).
func NewBufferWithLedger(f File, slots int, ledger *Ledger) *Buffer {
	if slots < 0 {
		panic("pagestore: negative slot count")
	}
	return &Buffer{file: f, frames: make([]*frame, slots), ledger: ledger}
}

// PageSize returns the page size of the underlying file.
func (b *Buffer) PageSize() int { return b.file.PageSize() }

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
// returning the slot it freed. Callers hold mu.
func (b *Buffer) evict() (int, error) {
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
	}
	b.frames[v] = nil
	b.ledger.evict(victim.dirty)
	return v, nil
}

// load returns the frame for id, faulting it in (and evicting) as needed,
// stamped as the buffer's latest access, and whether it was buffered
// already. Callers hold mu and have checked that the buffer has slots.
func (b *Buffer) load(id PageID, readThrough bool) (*frame, bool, error) {
	b.clock++
	if i := b.find(id); i >= 0 {
		fr := b.frames[i]
		fr.used = b.clock
		return fr, true, nil
	}
	free := slices.Index(b.frames, nil)
	if free < 0 {
		var err error
		if free, err = b.evict(); err != nil {
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
// long as no writer runs (Put writes into the frame), which the TAR-tree
// guarantees while queries run. The B+-tree read path reads pages in place
// on the strength of this.
func (b *Buffer) Get(id PageID) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.frames) == 0 {
		buf := make([]byte, b.file.PageSize())
		if err := b.file.ReadPage(id, buf); err != nil {
			return nil, err
		}
		b.ledger.read(false)
		return buf, nil
	}
	fr, hit, err := b.load(id, true)
	if err != nil {
		return nil, err
	}
	b.ledger.read(hit)
	return fr.data, nil
}

// Put stores data as the content of page id. With buffering, the write is
// deferred until eviction or Flush (write-back); without slots it goes
// straight to the file.
func (b *Buffer) Put(id PageID, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ledger.logicalWrite()
	if len(b.frames) == 0 {
		if err := b.file.WritePage(id, data); err != nil {
			return err
		}
		b.ledger.physicalWrite()
		return nil
	}
	fr, _, err := b.load(id, false)
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
			b.ledger.physicalWrite()
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
