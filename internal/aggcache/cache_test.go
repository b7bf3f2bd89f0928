package aggcache

import (
	"fmt"
	"sync"
	"testing"
)

type key struct{ a, b int64 }

func hash(k key) uint64 { return Mix(Mix(Seed, uint64(k.a)), uint64(k.b)) }

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	k := key{1, 2}
	if _, ok := c.Get(hash(k), k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(hash(k), k, int64(42), 8)
	v, ok := c.Get(hash(k), k)
	if !ok || v.(int64) != 42 {
		t.Fatalf("got (%v, %v), want (42, true)", v, ok)
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 entry", s)
	}
	if s.Bytes != 8+entryOverheadBytes {
		t.Fatalf("bytes %d, want %d", s.Bytes, 8+entryOverheadBytes)
	}
}

func TestInvalidateOrphansEverything(t *testing.T) {
	c := New(1 << 20)
	for i := int64(0); i < 10; i++ {
		k := key{i, i}
		c.Put(hash(k), k, i, 8)
	}
	c.Invalidate()
	for i := int64(0); i < 10; i++ {
		k := key{i, i}
		if _, ok := c.Get(hash(k), k); ok {
			t.Fatalf("key %d hit after Invalidate", i)
		}
	}
	s := c.Snapshot()
	if s.Invalidated != 10 {
		t.Fatalf("invalidated %d, want 10", s.Invalidated)
	}
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("stale entries not reclaimed: %+v", s)
	}
	if s.Version != 1 {
		t.Fatalf("version %d, want 1", s.Version)
	}
	// Fresh puts under the new version hit again.
	k := key{3, 3}
	c.Put(hash(k), k, int64(7), 8)
	if v, ok := c.Get(hash(k), k); !ok || v.(int64) != 7 {
		t.Fatal("post-invalidation put did not hit")
	}
}

func TestPutOverwriteSettlesBytes(t *testing.T) {
	c := New(1 << 20)
	k := key{5, 5}
	c.Put(hash(k), k, "small", 10)
	c.Put(hash(k), k, "bigger", 100)
	s := c.Snapshot()
	if s.Entries != 1 {
		t.Fatalf("entries %d, want 1", s.Entries)
	}
	if s.Bytes != 100+entryOverheadBytes {
		t.Fatalf("bytes %d, want %d", s.Bytes, 100+entryOverheadBytes)
	}
	if v, _ := c.Get(hash(k), k); v != "bigger" {
		t.Fatalf("got %v, want the overwritten value", v)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// One shard's budget is maxBytes/numShards; route every key to the same
	// shard (identical hash) so eviction order is observable.
	per := int64(4 * (64 + entryOverheadBytes))
	c := New(per * numShards)
	const h = 7
	for i := int64(0); i < 6; i++ {
		k := key{i, 0}
		c.Put(h, k, i, 64)
	}
	s := c.Snapshot()
	if s.Evictions != 2 {
		t.Fatalf("evictions %d, want 2", s.Evictions)
	}
	if s.Bytes > per {
		t.Fatalf("shard over budget: %d > %d", s.Bytes, per)
	}
	// The two oldest keys are gone, the four newest remain.
	for i := int64(0); i < 2; i++ {
		if _, ok := c.Get(h, key{i, 0}); ok {
			t.Fatalf("key %d survived eviction", i)
		}
	}
	for i := int64(2); i < 6; i++ {
		if _, ok := c.Get(h, key{i, 0}); !ok {
			t.Fatalf("key %d evicted out of LRU order", i)
		}
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(numShards * 1024)
	k := key{9, 9}
	c.Put(hash(k), k, "huge", 1<<20)
	if _, ok := c.Get(hash(k), k); ok {
		t.Fatal("value larger than a shard budget was cached")
	}
	if s := c.Snapshot(); s.Entries != 0 {
		t.Fatalf("entries %d, want 0", s.Entries)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	c.Put(1, key{1, 1}, 1, 8)
	if _, ok := c.Get(1, key{1, 1}); ok {
		t.Fatal("nil cache hit")
	}
	c.Invalidate()
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot %+v", s)
	}
	if New(0) != nil {
		t.Fatal("New(0) must return the nil no-op cache")
	}
}

// TestConcurrentHammer drives gets, puts and invalidations from many
// goroutines; run with -race. Afterwards the byte/entry counters must agree
// with a full walk of the shards.
func TestConcurrentHammer(t *testing.T) {
	c := New(64 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key{int64(i % 97), int64(w % 3)}
				h := hash(k)
				if v, ok := c.Get(h, k); ok {
					if v.(int64) != k.a {
						t.Errorf("corrupt value %v for key %+v", v, k)
						return
					}
				} else {
					c.Put(h, k, k.a, 16)
				}
				if i%500 == 499 && w == 0 {
					c.Invalidate()
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	var bytes, entries int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		bytes += sh.bytes
		entries += int64(len(sh.items))
		if sh.lru.Len() != len(sh.items) {
			t.Errorf("shard %d: lru %d != map %d", i, sh.lru.Len(), len(sh.items))
		}
		sh.mu.Unlock()
	}
	if s.Bytes != bytes || s.Entries != entries {
		t.Fatalf("counters (bytes %d, entries %d) != shard walk (%d, %d)",
			s.Bytes, s.Entries, bytes, entries)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("degenerate run: %+v", s)
	}
}

// TestAdmitSecondSight pins the admission rule: a hash is admitted the
// second time it is offered, its slot outlives Invalidate, a colliding hash
// takes the slot over, the nil cache admits nothing, and Refused counts the
// refusals.
func TestAdmitSecondSight(t *testing.T) {
	c := New(1 << 20)
	h := hash(key{1, 2})
	if c.Admit(h) {
		t.Fatal("first sight admitted")
	}
	if !c.Admit(h) {
		t.Fatal("second sight refused")
	}
	c.Invalidate()
	if !c.Admit(h) {
		t.Fatal("Invalidate cleared the admission table")
	}
	// Same shard (low bits) and same slot (high bits), another hash.
	other := h ^ 1<<20
	if c.Admit(other) {
		t.Fatal("colliding hash admitted on first sight")
	}
	if c.Admit(h) {
		t.Fatal("a colliding hash did not take the slot over")
	}
	if !c.Admit(h) {
		t.Fatal("second sight after a collision refused")
	}
	s := c.Snapshot()
	if s.Refused != 3 {
		t.Errorf("refused %d, want 3", s.Refused)
	}
	if s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("Admit touched the entries or their counters: %+v", s)
	}
	var nilCache *Cache
	if nilCache.Admit(h) || nilCache.Admit(h) {
		t.Error("nil cache admitted a hash")
	}
}

// TestAdmitConcurrent offers the same hashes from several goroutines; run
// with -race. Every false return is one Refused count.
func TestAdmitConcurrent(t *testing.T) {
	c := New(1 << 20)
	const workers, keys = 4, 256
	var wg sync.WaitGroup
	refused := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < keys; i++ {
				if !c.Admit(hash(key{i, 0})) {
					refused[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, n := range refused {
		sum += n
	}
	if got := c.Snapshot().Refused; got != sum || sum < keys/2 {
		t.Fatalf("Refused = %d, the goroutines saw %d refusals (of %d calls)", got, sum, workers*keys)
	}
}

func TestMixSpreadsShards(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1024; i++ {
		seen[Mix(Seed, i)&(numShards-1)] = true
	}
	if len(seen) != numShards {
		t.Fatalf("hash reached %d/%d shards", len(seen), numShards)
	}
}

func ExampleCache() {
	c := New(1 << 20)
	type aggKey struct {
		tia        uint64
		start, end int64
	}
	k := aggKey{tia: 7, start: 0, end: 3600}
	h := Mix(Mix(Mix(Seed, k.tia), uint64(k.start)), uint64(k.end))
	c.Put(h, k, int64(42), 24)
	if v, ok := c.Get(h, k); ok {
		fmt.Println(v)
	}
	c.Invalidate() // an epoch flush changed the aggregates
	_, ok := c.Get(h, k)
	fmt.Println(ok)
	// Output:
	// 42
	// false
}
