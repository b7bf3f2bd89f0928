package aggcache

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// aggKeyFor spreads i over TIA ids and a handful of intervals, the way a
// query stream does.
func aggKeyFor(i int) AggKey {
	return AggKey{TIA: uint64(i / 4), Start: int64(i%4) * 3600, End: int64(i%4+1) * 7200}
}

func shardOf(k AggKey) int {
	si, _ := k.hash()
	return si
}

// realAggBytes walks a shard's aggregate tier and returns what it occupies
// in memory.
func realAggBytes(s *shard) int64 {
	var b int64
	for _, ch := range s.agg.chunks {
		b += int64(cap(ch)) * int64(unsafe.Sizeof(aggSlot{}))
	}
	return b + int64(cap(s.agg.table))*int64(unsafe.Sizeof(aggCell{}))
}

// checkShards verifies every structural invariant of the aggregate tier and
// the byte accounting of both tiers: the charge equals the real footprint
// and never exceeds the budget.
func checkShards(t *testing.T, c *Cache) {
	t.Helper()
	var bytes, entries int64
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		var result int64
		for el := s.lru.Front(); el != nil; el = el.Next() {
			result += el.Value.(*entry).bytes
		}
		if got := result + realAggBytes(s); got != s.bytes {
			t.Errorf("shard %d: charged %d bytes, holds %d", si, s.bytes, got)
		}
		if s.bytes > s.maxBytes {
			t.Errorf("shard %d: %d bytes over the budget of %d", si, s.bytes, s.maxBytes)
		}
		a := &s.agg
		if int(a.n) > len(a.chunks)*aggChunkSlots {
			t.Errorf("shard %d: %d entries in %d chunks", si, a.n, len(a.chunks))
		}
		// The LRU list visits every live slot once, most recent first.
		seen, prev, last := 0, int32(-1), uint64(1<<63)
		for i := a.head; a.n > 0 && i >= 0; i = a.at(i).next {
			sl := a.at(i)
			if i >= a.n || sl.prev != prev || sl.used >= last {
				t.Fatalf("shard %d: broken LRU list at slot %d", si, i)
			}
			if a.find(sl.key, a.tableHash(i)) != i {
				t.Fatalf("shard %d: slot %d not reachable through the table", si, i)
			}
			seen, prev, last = seen+1, i, sl.used
		}
		if seen != int(a.n) || (a.n > 0 && a.tail != prev) {
			t.Errorf("shard %d: LRU list has %d of %d slots", si, seen, a.n)
		}
		cells := 0
		for _, cl := range a.table {
			if cl.slot != 0 {
				cells++
			}
		}
		if cells != int(a.n) {
			t.Errorf("shard %d: %d table cells for %d slots", si, cells, a.n)
		}
		bytes += s.bytes
		entries += int64(len(s.items)) + int64(a.n)
		s.mu.Unlock()
	}
	if st := c.Snapshot(); st.Bytes != bytes || st.Entries != entries {
		t.Errorf("snapshot (bytes %d, entries %d) != shard walk (%d, %d)", st.Bytes, st.Entries, bytes, entries)
	}
}

func TestAggRoundTripAndInvalidate(t *testing.T) {
	c := New(1 << 20)
	k := aggKeyFor(7)
	if _, ok := c.GetAgg(k); ok {
		t.Fatal("hit on empty cache")
	}
	if st := c.Snapshot(); st.Bytes != 0 {
		t.Fatalf("an unused tier is charged %d bytes", st.Bytes)
	}
	c.PutAgg(k, 42)
	if v, ok := c.GetAgg(k); !ok || v != 42 {
		t.Fatalf("got (%d, %v), want (42, true)", v, ok)
	}
	c.PutAgg(k, 43) // overwrite
	if v, _ := c.GetAgg(k); v != 43 {
		t.Fatalf("got %d after overwrite, want 43", v)
	}
	other := k
	other.Func = 1
	if _, ok := c.GetAgg(other); ok {
		t.Fatal("a different fold hit the same entry")
	}
	if st := c.Snapshot(); st.Hits != 2 || st.Misses != 2 || st.Entries != 1 || st.Bytes != aggFootprint(1) {
		t.Fatalf("stats %+v", st)
	}
	c.Invalidate()
	if _, ok := c.GetAgg(k); ok {
		t.Fatal("hit after Invalidate")
	}
	if st := c.Snapshot(); st.Invalidated != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry not reclaimed, or its chunk kept: %+v", st)
	}
	checkShards(t, c)
}

// TestAggExactLRU drives one shard's worth of keys through a small budget
// and checks, after every operation, the stack property of an exact LRU: the
// tier holds precisely the most recently used keys.
func TestAggExactLRU(t *testing.T) {
	c := New(numShards * (aggFootprint(2) + 100)) // two chunks per shard, not three
	rng := rand.New(rand.NewSource(3))
	var recency [numShards][]AggKey // most recent first, per shard
	touch := func(k AggKey) {
		r := &recency[shardOf(k)]
		for i, o := range *r {
			if o == k {
				*r = append((*r)[:i], (*r)[i+1:]...)
				break
			}
		}
		*r = append([]AggKey{k}, *r...)
	}
	for op := 0; op < 40000; op++ {
		k := aggKeyFor(rng.Intn(16 * 3 * aggChunkSlots))
		if v, ok := c.GetAgg(k); ok {
			if v != int64(k.TIA)+k.Start {
				t.Fatalf("op %d: wrong value %d for %+v", op, v, k)
			}
		} else {
			c.PutAgg(k, int64(k.TIA)+k.Start)
		}
		touch(k)
		if op%997 == 0 {
			checkShards(t, c)
		}
	}
	checkShards(t, c)
	st := c.Snapshot()
	if st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	for si := range c.shards {
		s := &c.shards[si]
		if int(s.agg.n) != 2*aggChunkSlots {
			t.Fatalf("shard %d holds %d entries, want a full %d", si, s.agg.n, 2*aggChunkSlots)
		}
		i := s.agg.head
		for rank := 0; rank < int(s.agg.n); rank, i = rank+1, s.agg.at(i).next {
			if got, want := s.agg.at(i).key, recency[si][rank]; got != want {
				t.Fatalf("shard %d rank %d: holds %+v, exact LRU holds %+v", si, rank, got, want)
			}
		}
	}
}

// TestTiersShareBudget interleaves both tiers in one shard: the least
// recently used entry of either goes first, the charge matches the real
// footprint throughout, and a tier that empties returns its memory.
func TestTiersShareBudget(t *testing.T) {
	per := aggFootprint(2) + 4*(64+entryOverheadBytes)
	c := New(per * numShards)
	// Aggregate keys that all land in shard 0, as the result keys below do.
	var keys []AggKey
	for i := 0; len(keys) < 3*aggChunkSlots; i++ {
		if k := aggKeyFor(i); shardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	for i := 0; i < 2; i++ { // oldest: two result entries
		c.Put(0, key{int64(i), 0}, i, 64)
	}
	for _, k := range keys[:2*aggChunkSlots] { // then two chunks of aggregates
		c.PutAgg(k, 1)
	}
	for i := 2; i < 4; i++ {
		c.Put(0, key{int64(i), 0}, i, 64)
	}
	checkShards(t, c)
	if st := c.Snapshot(); st.Evictions != 0 || st.Bytes != per {
		t.Fatalf("budget sized to fit exactly: %+v", st)
	}
	// A fifth result entry evicts the oldest entry: result 0.
	c.Put(0, key{4, 0}, 4, 64)
	if _, ok := c.Get(0, key{0, 0}); ok {
		t.Fatal("oldest result entry survived")
	}
	if _, ok := c.Get(0, key{1, 0}); !ok { // refreshes result 1
		t.Fatal("second-oldest result entry evicted out of order")
	}
	// A new aggregate finds no room to grow and replaces the oldest
	// aggregate, not the (now more recent) result entries.
	c.PutAgg(keys[2*aggChunkSlots], 1)
	if _, ok := c.GetAgg(keys[0]); ok {
		t.Fatal("oldest aggregate survived")
	}
	if _, ok := c.GetAgg(keys[1]); !ok {
		t.Fatal("second-oldest aggregate evicted out of order")
	}
	checkShards(t, c)
	// Large result values squeeze the aggregate tier out chunk by chunk.
	for i := 10; i < 40; i++ {
		c.Put(0, key{int64(i), 0}, i, 2048)
		checkShards(t, c)
	}
	if n := c.shards[0].agg.n; n != 0 {
		t.Fatalf("%d aggregates survived %d KiB of newer results", n, 30*2)
	}
	if c.shards[0].agg.chunks != nil || c.shards[0].agg.table != nil {
		t.Fatal("an empty aggregate tier kept its memory")
	}
	// And aggregates push results out again.
	for _, k := range keys {
		c.PutAgg(k, 2)
	}
	checkShards(t, c)
	if v, ok := c.GetAgg(keys[len(keys)-1]); !ok || v != 2 {
		t.Fatal("latest aggregate missing")
	}
}

// TestAggBudgetTooSmall: a shard budget below one chunk caches no
// aggregates (and does not disturb the result tier).
func TestAggBudgetTooSmall(t *testing.T) {
	c := New(numShards * 1024)
	c.Put(0, key{1, 1}, 1, 8)
	for i := 0; i < 100; i++ {
		c.PutAgg(aggKeyFor(i), 1)
	}
	checkShards(t, c)
	if st := c.Snapshot(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want the one result entry", st)
	}
}

// TestAggConcurrentHammer mixes both tiers and invalidations from many
// goroutines; run with -race.
func TestAggConcurrentHammer(t *testing.T) {
	c := New(numShards * (aggFootprint(3) + 2048))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20000; i++ {
				k := aggKeyFor(rng.Intn(16 * 4 * aggChunkSlots))
				if v, ok := c.GetAgg(k); ok {
					if v != int64(k.TIA) {
						t.Errorf("corrupt value %d for %+v", v, k)
						return
					}
				} else {
					c.PutAgg(k, int64(k.TIA))
				}
				if i%64 == 0 {
					rk := key{int64(i % 50), int64(w)}
					c.Put(hash(rk), rk, rk.a, 100)
				}
				if i%5000 == 4999 && w == 0 {
					c.Invalidate()
				}
			}
		}(w)
	}
	wg.Wait()
	checkShards(t, c)
	if st := c.Snapshot(); st.Hits == 0 || st.Evictions == 0 || st.Invalidated == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}

// fullAggCache returns a cache whose aggregate tier is at its budget, and
// the keys it was filled with in insertion order.
func fullAggCache(tb testing.TB) (*Cache, []AggKey) {
	c := New(8 << 20)
	n := int(8 << 20 / (aggChunkBytes/aggChunkSlots + 2*aggCellBytes))
	keys := make([]AggKey, 2*n)
	for i := range keys {
		keys[i] = aggKeyFor(i)
		c.PutAgg(keys[i], int64(i))
	}
	if c.Snapshot().Evictions == 0 {
		tb.Fatal("cache not full")
	}
	return c, keys
}

func BenchmarkAggTierGetHit(b *testing.B) {
	c, keys := fullAggCache(b)
	live := keys[len(keys)-int(c.Snapshot().Entries):]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.GetAgg(live[i%len(live)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkAggTierGetMiss(b *testing.B) {
	c, keys := fullAggCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		k.Func = 1
		if _, ok := c.GetAgg(k); ok {
			b.Fatal("hit")
		}
	}
}

func BenchmarkAggTierPutEvict(b *testing.B) {
	c, _ := fullAggCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := aggKeyFor(i)
		k.Func = 1
		c.PutAgg(k, int64(i))
	}
}

// TestAggTierAllocatesNothing pins the steady state of the aggregate tier:
// no operation on it allocates — not a hit, a miss or a stale reclaim, not
// an insert into a chunk with room, an overwrite or an eviction.
func TestAggTierAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	check := func(name string, runs int, fn func(i int)) {
		t.Helper()
		i := 0
		if a := testing.AllocsPerRun(runs, func() { fn(i); i++ }); a != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, a)
		}
	}
	c, keys := fullAggCache(t)
	live := keys[len(keys)-int(c.Snapshot().Entries):]
	st0 := c.Snapshot()
	check("GetAgg hit", 1000, func(i int) { c.GetAgg(live[i%len(live)]) })
	check("GetAgg miss", 1000, func(i int) { c.GetAgg(keys[i]) }) // evicted long ago
	check("PutAgg overwrite", 1000, func(i int) { c.PutAgg(live[i%len(live)], 5) })
	check("PutAgg evict", 1000, func(i int) {
		k := aggKeyFor(i)
		k.Sem = 1
		c.PutAgg(k, 5)
	})
	st := c.Snapshot()
	if st.Hits-st0.Hits != 1001 || st.Misses-st0.Misses != 1001 || st.Evictions-st0.Evictions != 1001 || st.Entries != st0.Entries {
		t.Fatalf("the steady-state calls did not do what they are named for: %+v -> %+v", st0, st)
	}

	// Inserts into chunks with room, then stale reclaims of the same
	// entries: every shard stays within its first chunk, so neither grows
	// nor rebuilds anything.
	c = New(8 << 20)
	for i := 0; i < 40*numShards; i++ {
		c.PutAgg(aggKeyFor(i), 1)
	}
	fresh := func(i int) AggKey {
		k := aggKeyFor(i)
		k.Sem = 1
		return k
	}
	check("PutAgg insert", 200, func(i int) { c.PutAgg(fresh(i), 1) })
	c.Invalidate()
	before := c.Snapshot().Invalidated
	check("GetAgg stale", 200, func(i int) { c.GetAgg(fresh(i)) })
	if got := c.Snapshot().Invalidated - before; got < 200 {
		t.Fatalf("%d stale reclaims, want 200+", got)
	}
	checkShards(t, c)
}

// TestAggBytesMatchHeap fills the tier to its budget and compares the charge
// with what the Go heap grew by: the accounting is truthful when -cache-bytes
// is what the cache pins, not a fraction of it.
func TestAggBytesMatchHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const budget = 16 << 20
	before := heap()
	c := New(budget)
	for i := 0; i < 400000; i++ {
		c.PutAgg(aggKeyFor(i), 1)
	}
	grown := heap() - before
	st := c.Snapshot()
	if st.Evictions == 0 || st.Bytes > budget || st.Bytes < budget*9/10 {
		t.Fatalf("tier not at its budget: %+v", st)
	}
	if grown > st.Bytes*11/10 || grown < st.Bytes*9/10 {
		t.Fatalf("charged %d bytes, heap grew by %d", st.Bytes, grown)
	}
	runtime.KeepAlive(c)
}
