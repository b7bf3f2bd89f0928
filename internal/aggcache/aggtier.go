package aggcache

import (
	"math/bits"
	"unsafe"
)

// AggKey identifies one memoized TIA aggregate: the TIA's process-unique
// id, the half-open query interval, and the matching semantics and fold
// (tia.Semantics, tia.Func) so trees with different options can share one
// cache.
type AggKey struct {
	TIA        uint64
	Start, End int64
	Sem, Func  uint8
}

// hash chains Mix over the key's fields. The low bits route the key to its
// shard; the high half, returned as h, places it in the shard's table.
func (k AggKey) hash() (shard int, h uint32) {
	x := Mix(Seed, k.TIA)
	x = Mix(x, uint64(k.Start))
	x = Mix(x, uint64(k.End))
	x = Mix(x, uint64(k.Sem))
	x = Mix(x, uint64(k.Func))
	return int(x & (numShards - 1)), uint32(x >> 32)
}

// tableHash is the table hash of the key in slot i.
func (t *aggTier) tableHash(i int32) uint32 {
	_, h := t.at(i).key.hash()
	return h
}

// aggSlot is one aggregate-tier entry. It holds no pointers: the LRU list
// runs through slot indices, so the collector never scans a slab.
type aggSlot struct {
	key        AggKey
	val        int64
	ver        uint64
	used       uint64 // shard clock at the last touch
	prev, next int32  // LRU neighbours (toward head, toward tail); -1 = none
}

// aggCell is one cell of the open-addressed key table.
type aggCell struct {
	slot int32  // slot index + 1; 0 marks an empty cell
	hash uint32 // high half of the key's hash: home cell and quick reject
}

const (
	// aggChunkSlots is the slab's growth step: the tier grows and shrinks by
	// whole chunks, so an idle cache holds nothing and growth never copies.
	aggChunkSlots = 128
	aggChunkBytes = aggChunkSlots * int64(unsafe.Sizeof(aggSlot{}))
	aggCellBytes  = int64(unsafe.Sizeof(aggCell{}))
)

// aggTier is one shard's aggregate tier: a slab of slots in fixed-size
// chunks, kept dense (slots [0, n) are the live entries; a removal moves
// the last slot into the hole) so that trailing chunks empty out and can be
// released, a linear-probing table from key to slot index, and an exact LRU
// list threaded through the slots. All of it is guarded by the shard's
// mutex.
type aggTier struct {
	chunks     [][]aggSlot
	table      []aggCell // len is 0 or a power of two >= 2 × capacity
	n          int32
	head, tail int32 // most / least recently used; meaningful when n > 0
}

func (t *aggTier) at(i int32) *aggSlot {
	return &t.chunks[uint32(i)/aggChunkSlots][uint32(i)%aggChunkSlots]
}

// aggFootprint is what a tier of the given number of chunks occupies: the
// chunks plus the table sized for them. The shard is charged exactly this.
func aggFootprint(chunks int) int64 {
	return int64(chunks)*aggChunkBytes + int64(aggTableLen(chunks))*aggCellBytes
}

// aggTableLen keeps the table at most half full, so probes stay short.
func aggTableLen(chunks int) int {
	if chunks == 0 {
		return 0
	}
	return 1 << bits.Len(uint(2*chunks*aggChunkSlots-1))
}

// resize sets the number of chunks (never below what the live entries
// occupy) and rebuilds the table when its size changes with it.
func (t *aggTier) resize(chunks int) {
	for len(t.chunks) < chunks {
		t.chunks = append(t.chunks, make([]aggSlot, aggChunkSlots))
	}
	clear(t.chunks[chunks:])
	t.chunks = t.chunks[:chunks]
	if chunks == 0 {
		t.chunks = nil
	}
	if want := aggTableLen(chunks); want != len(t.table) {
		t.table = nil
		if want > 0 {
			t.table = make([]aggCell, want)
		}
		for i := int32(0); i < t.n; i++ {
			t.tableSet(t.tableHash(i), i)
		}
	}
}

// find returns the slot holding k, or -1.
func (t *aggTier) find(k AggKey, h uint32) int32 {
	if len(t.table) == 0 {
		return -1
	}
	mask := uint32(len(t.table) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		c := t.table[p]
		if c.slot == 0 {
			return -1
		}
		if c.hash == h && t.at(c.slot-1).key == k {
			return c.slot - 1
		}
	}
}

// cellOf returns the table position of the cell pointing at slot i, whose
// key hashes to h. The slot must be in the table.
func (t *aggTier) cellOf(h uint32, i int32) uint32 {
	mask := uint32(len(t.table) - 1)
	p := h & mask
	for t.table[p].slot != i+1 {
		p = (p + 1) & mask
	}
	return p
}

// tableSet records that the key hashing to h lives in slot i. The table is
// never full, so the probe ends.
func (t *aggTier) tableSet(h uint32, i int32) {
	mask := uint32(len(t.table) - 1)
	p := h & mask
	for t.table[p].slot != 0 {
		p = (p + 1) & mask
	}
	t.table[p] = aggCell{slot: i + 1, hash: h}
}

// tableDel empties the cell of slot i (key hash h) and shifts the cells
// that probed past it back toward their homes, so no tombstones are needed
// and lookups keep stopping at the first empty cell.
func (t *aggTier) tableDel(h uint32, i int32) {
	mask := uint32(len(t.table) - 1)
	p := t.cellOf(h, i)
	for q := (p + 1) & mask; ; q = (q + 1) & mask {
		c := t.table[q]
		if c.slot == 0 {
			break
		}
		// c may move into the hole at p only if its home does not lie
		// cyclically in (p, q].
		if (q-c.hash)&mask >= (q-p)&mask {
			t.table[p] = c
			p = q
		}
	}
	t.table[p] = aggCell{}
}

// unlink takes slot i out of the LRU list.
func (t *aggTier) unlink(i int32) {
	s := t.at(i)
	if s.prev >= 0 {
		t.at(s.prev).next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.at(s.next).prev = s.prev
	} else {
		t.tail = s.prev
	}
}

// pushFront makes slot i the most recently used, stamped with the shard
// clock value used.
func (t *aggTier) pushFront(i int32, used uint64) {
	s := t.at(i)
	s.used, s.prev, s.next = used, -1, t.head
	if t.head >= 0 {
		t.at(t.head).prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

// touchAgg makes slot i the shard's most recently used entry.
func (s *shard) touchAgg(i int32) {
	s.agg.unlink(i)
	s.agg.pushFront(i, s.tick())
}

// detach takes slot i out of the LRU list and the table; the slot itself
// is then free for reuse or compaction.
func (t *aggTier) detach(i int32) {
	t.unlink(i)
	t.tableDel(t.tableHash(i), i)
}

// removeAgg deletes slot i, moves the last live slot into the hole, and
// releases trailing chunks once two of them stand empty (one spare chunk of
// hysteresis, so an entry count hovering at a chunk boundary does not
// allocate and free a chunk per operation) or the tier is empty. Caller
// holds s.mu.
func (s *shard) removeAgg(i int32) {
	t := &s.agg
	t.detach(i)
	t.n--
	if last := t.n; i != last {
		moved := t.at(last)
		t.table[t.cellOf(t.tableHash(last), last)].slot = i + 1
		*t.at(i) = *moved
		if moved.prev >= 0 {
			t.at(moved.prev).next = i
		} else {
			t.head = i
		}
		if moved.next >= 0 {
			t.at(moved.next).prev = i
		} else {
			t.tail = i
		}
	}
	keep := len(t.chunks)
	if t.n == 0 {
		keep = 0
	} else if spare := keep - (int(t.n)+aggChunkSlots-1)/aggChunkSlots; spare >= 2 {
		keep -= spare - 1
	}
	if keep != len(t.chunks) {
		s.bytes += aggFootprint(keep) - aggFootprint(len(t.chunks))
		t.resize(keep)
	}
}

// GetAgg returns the cached aggregate for k, or (0, false). Entries stored
// before the last Invalidate miss and are reclaimed. It counts in the same
// hit/miss/invalidated series as Get.
func (c *Cache) GetAgg(k AggKey) (int64, bool) {
	if c == nil {
		return 0, false
	}
	si, h := k.hash()
	ver := c.version.Load()
	s := &c.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.agg.find(k, h)
	if i < 0 {
		s.misses++
		return 0, false
	}
	sl := s.agg.at(i)
	if sl.ver != ver {
		s.removeAgg(i)
		s.stale++
		s.misses++
		return 0, false
	}
	s.touchAgg(i)
	s.hits++
	return sl.val, true
}

// PutAgg stores v under k. The tier is charged its real footprint — slab
// chunks plus key table — and grows a chunk at a time while the shard's
// budget allows; past that, a new entry takes the place of the shard's
// least recently used one. A budget too small for one chunk caches no
// aggregates.
func (c *Cache) PutAgg(k AggKey, v int64) {
	if c == nil {
		return
	}
	si, h := k.hash()
	ver := c.version.Load()
	s := &c.shards[si]
	if aggFootprint(1) > s.maxBytes {
		return // the budget cannot hold a single chunk
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.agg
	if i := t.find(k, h); i >= 0 {
		sl := t.at(i)
		if sl.ver != ver {
			s.stale++
		}
		sl.val, sl.ver = v, ver
		s.touchAgg(i)
		return
	}
	i := t.n
	for int(t.n) == len(t.chunks)*aggChunkSlots {
		if grow := aggFootprint(len(t.chunks)+1) - aggFootprint(len(t.chunks)); s.bytes+grow <= s.maxBytes {
			t.resize(len(t.chunks) + 1)
			s.bytes += grow
			break
		}
		if s.aggOldest() {
			// The steady state of a full tier: the new entry is written
			// over the evicted one where it lies.
			i = t.tail
			t.detach(i)
			s.evicted++
			break
		}
		s.remove(s.lru.Back()) // not nil: an empty shard has room for a chunk
		s.evicted++
	}
	if i == t.n {
		t.n++
	}
	*t.at(i) = aggSlot{key: k, val: v, ver: ver}
	t.pushFront(i, s.tick())
	t.tableSet(h, i)
}
