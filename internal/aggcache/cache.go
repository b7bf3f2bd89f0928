// Package aggcache is a sharded, epoch-versioned, byte-sized LRU cache for
// query-derived values of a TAR-tree: whole ranked result sets — (query
// signature, k, α0) → results. The TIA is read-mostly by construction
// (Section 4.1: aggregates change only when an epoch flush folds buffered
// check-ins into the index), so between mutations every cached value is
// provably identical to a recomputation.
//
// Correctness rests on a single monotonic version stamp. Every entry is
// stamped with the cache version current when it was stored; Invalidate
// bumps the version, instantly orphaning every older entry (they miss on
// lookup and are reclaimed lazily by the LRU). The tree bumps the version on
// every mutation that can change a query answer — epoch flushes, POI
// insertion/deletion, rebuilds — so a hit can never serve pre-mutation
// state. A check-in, live or replayed from the WAL, bumps nothing: it is
// buffered, and no query reads it until the flush that folds it in.
//
// Admission: a result is worth storing only if its key comes back. Each
// shard keeps a direct-mapped table of the key hashes it has been offered
// (Admit), TinyLFU's "doorkeeper"; a caller stores a value only when Admit
// reports its hash seen before, so a key is stored the second time it is
// computed and a one-hit wonder costs one table slot, not an entry. The
// table holds one slot per KiB of budget and survives Invalidate, so a key
// whose entry a flush orphaned is stored again on its first miss after it.
//
// Concurrency: Get/Put/Admit/Invalidate are safe from any number of
// goroutines. The intended discipline (which wal.Store enforces with its
// RWMutex) is that queries — the only writers of cache entries — run under
// a read lock while mutations and their Invalidate run under the write
// lock; a Put can therefore never straddle an invalidation, and its stamp
// is always the version the value was computed at.
//
// The cache is value-agnostic: keys are any comparable values (the caller
// supplies a 64-bit hash for shard routing), values are opaque with a
// caller-estimated byte size. It holds no single TIA aggregates: an
// in-memory probe is cheaper than any lookup that could stand in for it. A
// nil *Cache is a valid no-op cache, so call sites need no guards.
package aggcache

import (
	"container/list"
	"math/bits"
	"sync"
	"sync/atomic"
)

// numShards splits the key space to keep lock contention negligible under
// concurrent queries. Must be a power of two.
const numShards = 16

// entryOverheadBytes is charged per entry on top of the
// caller-supplied value size. It is what the allocator actually hands out
// for one entry: the list element (48), the entry struct (64), the key and
// the value header boxed into interfaces (64 + 24 for core's result key and
// []Result) and the entry's share of the map's buckets (≈ 40).
const entryOverheadBytes = 240

// bytesPerSeenSlot sizes the admission table: one slot (8 bytes) per KiB of
// budget, so the table costs under 1 % of what it guards.
const bytesPerSeenSlot = 1024

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Get outcomes. A lookup that finds an entry of
	// an older version counts as a miss (and as an Invalidated reclaim).
	Hits, Misses int64
	// Evictions counts entries dropped to fit the byte budget; Invalidated
	// counts stale entries reclaimed lazily on lookup or overwrite.
	Evictions, Invalidated int64
	// Refused counts Admit calls that returned false: values computed for
	// a key not seen before, and so not stored.
	Refused int64
	// Bytes and Entries describe the current contents (stale entries not
	// yet reclaimed included).
	Bytes, Entries int64
	// Version is the current invalidation stamp.
	Version uint64
}

// Cache is the sharded versioned LRU. Create one with New; the zero value
// and the nil pointer are both inert.
type Cache struct {
	version atomic.Uint64
	shards  [numShards]shard
}

// shard is one independently locked slice of the key space. Its counters are
// plain fields under mu — an operation holds the lock anyway, and a probe
// costs no shared atomic beyond the version load; Snapshot sums them.
type shard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64 // what the shard's entries are charged

	hits, misses, evicted, stale, refused int64

	// seen is the admission table: the last key hash offered to each of
	// its 1<<seenBits slots, slot = the hash's top seenBits bits.
	// Pointer-free, so the GC never scans it; allocated by the first Admit,
	// so a cache nothing is offered to holds none, and a start-up build
	// does not count it toward its heap goal.
	seen     []uint64
	seenBits uint

	items map[any]*list.Element
	lru   list.List // front = most recent
}

type entry struct {
	key   any
	val   any
	bytes int64
	ver   uint64
}

// New creates a cache bounded to roughly maxBytes across all shards.
// maxBytes <= 0 returns nil — the no-op cache — so a "-cache-bytes 0" flag
// disables caching with no further branching at call sites.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache{}
	per := maxBytes / numShards
	if per < entryOverheadBytes {
		per = entryOverheadBytes
	}
	// The table's slots: the largest power of two at most
	// per/bytesPerSeenSlot, and at least 1.
	seenBits := uint(max(bits.Len64(uint64(per/bytesPerSeenSlot))-1, 0))
	for i := range c.shards {
		s := &c.shards[i]
		s.maxBytes = per
		s.items = make(map[any]*list.Element)
		s.seenBits = seenBits
	}
	return c
}

// Version returns the current invalidation stamp.
func (c *Cache) Version() uint64 {
	if c == nil {
		return 0
	}
	return c.version.Load()
}

// Invalidate bumps the version stamp, orphaning every stored entry. O(1):
// stale entries are reclaimed lazily by lookups, overwrites and LRU
// pressure.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.version.Add(1)
}

// Get returns the cached value for key, or (nil, false). h routes the key to
// a shard; the same key must always be presented with the same hash. Entries
// stored before the last Invalidate miss and are reclaimed.
func (c *Cache) Get(h uint64, key any) (any, bool) {
	if c == nil {
		return nil, false
	}
	ver := c.version.Load()
	s := &c.shards[h&(numShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	e := el.Value.(*entry)
	if e.ver != ver {
		s.remove(el)
		s.stale++
		s.misses++
		return nil, false
	}
	s.lru.MoveToFront(el)
	s.hits++
	return e.val, true
}

// Admit reports whether h's slot in the admission table already holds h,
// and records h there. True means the key was offered before and no other
// hash has taken its slot since: its value is worth a Put. A colliding
// hash takes the slot over, so a key must come back before traffic
// overwrites it. The nil cache admits nothing.
func (c *Cache) Admit(h uint64) bool {
	if c == nil {
		return false
	}
	s := &c.shards[h&(numShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = make([]uint64, 1<<s.seenBits)
	}
	slot := &s.seen[h>>(64-s.seenBits)]
	if *slot == h {
		return true
	}
	*slot = h
	s.refused++
	return false
}

// Put stores val under key, charging valBytes plus a fixed per-entry
// overhead against the byte budget and evicting least-recently-used entries
// to fit. Values larger than a shard's whole budget are not cached.
func (c *Cache) Put(h uint64, key any, val any, valBytes int64) {
	if c == nil {
		return
	}
	size := valBytes + entryOverheadBytes
	ver := c.version.Load()
	s := &c.shards[h&(numShards-1)]
	if size > s.maxBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		if e.ver != ver {
			s.stale++
		}
		s.bytes += size - e.bytes
		e.val, e.bytes, e.ver = val, size, ver
		s.lru.MoveToFront(el)
	} else {
		s.items[key] = s.lru.PushFront(&entry{key: key, val: val, bytes: size, ver: ver})
		s.bytes += size
	}
	// The new entry is the most recent of the shard and fits the budget on
	// its own, so the loop stops before reaching it.
	for s.bytes > s.maxBytes {
		s.remove(s.lru.Back())
		s.evicted++
	}
}

// remove unlinks an entry from the shard. Caller holds s.mu.
func (s *shard) remove(el *list.Element) {
	e := s.lru.Remove(el).(*entry)
	delete(s.items, e.key)
	s.bytes -= e.bytes
}

// Snapshot returns the current counters, summed over the shards.
func (c *Cache) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Version: c.version.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evicted
		st.Invalidated += s.stale
		st.Refused += s.refused
		st.Bytes += s.bytes
		st.Entries += int64(len(s.items))
		s.mu.Unlock()
	}
	return st
}

// Mix folds v into hash h (FNV-1a style). Callers build shard-routing hashes
// by chaining Mix over the fields of their key structs, starting from Seed.
func Mix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// Seed is the FNV-1a offset basis, the conventional starting hash for Mix
// chains.
const Seed = 14695981039346656037
