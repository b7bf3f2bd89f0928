package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/tia"
)

// stepCtx is a context whose Err flips to Canceled after limit polls: it
// lets a test cancel a search at a deterministic point mid-flight, without
// timing races.
type stepCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *stepCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func exhaustiveQuery(tr *Tree) Query {
	return Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: tr.Len(), Alpha0: 0.5}
}

// TestQueryCtxHugeK: k comes straight from the request, so a k far beyond
// the POI count must neither size an allocation nor fail — it returns every
// POI.
func TestQueryCtxHugeK(t *testing.T) {
	tr := buildAccountingTree(t, TAR3D)
	q := exhaustiveQuery(tr)
	q.K = math.MaxInt
	res, _, err := tr.QueryCtx(context.Background(), q, &QueryOpts{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != tr.Len() {
		t.Errorf("k=MaxInt returned %d results, want all %d POIs", len(res), tr.Len())
	}
}

func TestQueryCtxCanceledBeforeStart(t *testing.T) {
	tr := buildAccountingTree(t, TAR3D)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats, err := tr.QueryCtx(ctx, exhaustiveQuery(tr), nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(res) != 0 {
		t.Errorf("canceled query returned %d results", len(res))
	}
	// Only the root read can have happened before the first poll.
	if stats.RTreeAccesses() > 1 {
		t.Errorf("pre-canceled query did %d node accesses", stats.RTreeAccesses())
	}
}

func TestQueryCtxExpiredDeadline(t *testing.T) {
	tr := buildAccountingTree(t, TAR3D)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, _, err := tr.QueryCtx(ctx, exhaustiveQuery(tr), nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}
}

// TestQueryCtxMidSearchCancellation cancels an exhaustive search after a
// fixed number of best-first pops and checks the three promises of the
// contract: the error wraps ErrCanceled, the stats are valid partial counts
// (some work done, strictly less than a full run), and nothing leaks — the
// canceled query's page reads still reconcile with the factory, and
// the tree keeps answering correctly afterwards.
func TestQueryCtxMidSearchCancellation(t *testing.T) {
	tr := buildAccountingTreeOpts(t, Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		Grouping:    TAR3D,
		EpochStart:  0,
		EpochLength: 100,
		TIA:         tia.NewBTreeFactory(256, 10),
	})
	q := exhaustiveQuery(tr)
	full, fullStats, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ledger := tr.Options().TIA.Ledger()
	base := ledger.Stats()

	ctx := &stepCtx{Context: context.Background(), limit: 10}
	res, stats, err := tr.QueryCtx(ctx, q, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(res) != 0 {
		t.Errorf("canceled query returned %d results", len(res))
	}
	if got := ctx.polls.Load(); got != ctx.limit+1 {
		t.Errorf("search did %d more pops after cancellation", got-ctx.limit-1)
	}
	if stats.RTreeAccesses() == 0 {
		t.Error("partial stats recorded no work")
	}
	if stats.RTreeAccesses() >= fullStats.RTreeAccesses() {
		t.Errorf("canceled after %d pops but did %d node accesses (full run: %d)",
			ctx.limit, stats.RTreeAccesses(), fullStats.RTreeAccesses())
	}

	// No leaked accounting: the canceled query's page reads plus a completed
	// query's must equal the factory's delta exactly, and the completed query
	// must reproduce the pre-cancellation answer.
	after, afterStats, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, full) {
		t.Error("query after cancellation differs from the one before")
	}
	stats.Merge(&afterStats)
	checkLedgerReads(t, ledger, base, &stats)
}

// cacheTestBackends mirrors the conservation test's backend set plus the
// in-memory TIA, so equivalence is proven for every storage engine.
func cacheTestBackends() map[string]func() tia.Factory {
	return map[string]func() tia.Factory{
		"mem":   func() tia.Factory { return tia.NewMemFactory() },
		"btree": func() tia.Factory { return tia.NewBTreeFactory(256, 10) },
		"mvbt":  func() tia.Factory { return tia.NewMVBTFactory(1024, 10) },
	}
}

// TestCacheEquivalence is the correctness contract of the result cache: for
// every grouping × backend, cached answers are byte-for-byte identical to
// uncached ones — on a cold cache, on a warm cache (whole-result hit), and
// again, round after round, while live ingest into new and old epochs
// interleaves with the queries: buffered check-ins leave every cached
// result a hit, and each flush invalidates them all.
func TestCacheEquivalence(t *testing.T) {
	queries := []Query{
		{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 700}, K: 10, Alpha0: 0.5},
		{X: 10, Y: 80, Iq: tia.Interval{Start: 100, End: 400}, K: 5, Alpha0: 0.3},
		{X: 95, Y: 5, Iq: tia.Interval{Start: 200, End: 700}, K: 3, Alpha0: 0.7},
		{X: 50, Y: 50, Iq: tia.Interval{Start: 300, End: 1100}, K: 10, Alpha0: 0.5}, // reaches the epochs ingested below
	}
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for name, newFac := range cacheTestBackends() {
			t.Run(g.String()+"/"+name, func(t *testing.T) {
				cache := aggcache.New(1 << 20)
				tr := buildAccountingTreeOpts(t, Options{
					World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
					NodeSize:    256,
					Grouping:    g,
					EpochStart:  0,
					EpochLength: 100,
					TIA:         newFac(),
					Cache:       cache,
				})
				ctx := context.Background()
				nocache := &QueryOpts{NoCache: true}
				for i, q := range queries {
					want, wantStats, err := tr.QueryCtx(ctx, q, nocache)
					if err != nil {
						t.Fatal(err)
					}
					cold, coldStats, err := tr.QueryCtx(ctx, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(cold, want) {
						t.Fatalf("query %d: cold cached result differs from uncached", i)
					}
					if coldStats.ResultCacheHit {
						t.Errorf("query %d: cold query reported a result-cache hit", i)
					}
					if coldStats.TIAAccesses > wantStats.TIAAccesses {
						t.Errorf("query %d: cold cached query did %d backend probes, uncached did %d",
							i, coldStats.TIAAccesses, wantStats.TIAAccesses)
					}
					// The cache stores a result the second time it is computed.
					if _, _, err := tr.QueryCtx(ctx, q, nil); err != nil {
						t.Fatal(err)
					}
					warm, warmStats, err := tr.QueryCtx(ctx, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(warm, want) {
						t.Fatalf("query %d: warm cached result differs from uncached", i)
					}
					if !warmStats.ResultCacheHit || warmStats.CacheHits == 0 {
						t.Errorf("query %d: warm query not served from the result cache: %+v", i, warmStats)
					}
					if warmStats.TIAAccesses != 0 || warmStats.RTreeAccesses() != 0 {
						t.Errorf("query %d: result-cache hit still traversed: %+v", i, warmStats)
					}
				}

				// A result-cache hit must hand out a private copy: mutating it
				// cannot poison later answers.
				warm, _, err := tr.QueryCtx(ctx, queries[0], nil)
				if err != nil {
					t.Fatal(err)
				}
				clean := append([]Result(nil), warm...)
				for i := range warm {
					warm[i].Score = -1
					warm[i].POI.ID = -1
				}
				again, _, err := tr.QueryCtx(ctx, queries[0], nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, clean) {
					t.Error("mutating a cached result leaked into the cache")
				}

				// Interleaved live ingest: each round checks the first answer's
				// POIs in — one into a fresh epoch, one back-dated into an epoch
				// that already holds data. Buffered, the check-ins change no
				// answer, so every cached query still hits and equals the
				// uncached one. The flush that folds them in must invalidate
				// every cached entry: the first cached query after it may not be
				// a stale hit and must equal the uncached answer; its repeat is
				// a hit again and equals it too.
				passes := func(phase string, round int64, wantHits []bool) {
					t.Helper()
					for i, q := range queries {
						want, _, err := tr.QueryCtx(ctx, q, nocache)
						if err != nil {
							t.Fatal(err)
						}
						for pass, wantHit := range wantHits {
							got, gotStats, err := tr.QueryCtx(ctx, q, nil)
							if err != nil {
								t.Fatal(err)
							}
							if gotStats.ResultCacheHit != wantHit {
								t.Errorf("round %d %s query %d pass %d: result-cache hit = %v, want %v",
									round, phase, i, pass, gotStats.ResultCacheHit, wantHit)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("round %d %s query %d pass %d: cached result differs from uncached", round, phase, i, pass)
							}
						}
					}
				}
				for round := int64(0); round < 4; round++ {
					top, _, err := tr.QueryCtx(ctx, queries[0], nocache)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 50; i++ {
						if err := tr.AddCheckIn(top[0].POI.ID, 650+100*round); err != nil {
							t.Fatal(err)
						}
						if err := tr.AddCheckIn(top[1].POI.ID, 150+100*round); err != nil {
							t.Fatal(err)
						}
					}
					passes("buffered", round, []bool{true})
					version := cache.Version()
					if err := tr.FlushEpochs(700 + 100*round); err != nil {
						t.Fatal(err)
					}
					if cache.Version() <= version {
						t.Fatalf("round %d: flush did not bump the cache version (%d -> %d)", round, version, cache.Version())
					}
					passes("flushed", round, []bool{false, true})
				}
			})
		}
	}
}

// TestCacheStoresOnSecondSight pins the store rule: a result is stored the
// second time it is computed, so a stream of distinct queries leaves the
// cache empty, and one query asked three times is a miss, a miss and a hit.
func TestCacheStoresOnSecondSight(t *testing.T) {
	cache := aggcache.New(1 << 20)
	tr := spanTestTree(t, cache)
	ctx := context.Background()
	const distinct = 50
	for i := 0; i < distinct; i++ {
		q := Query{X: float64(2 * i), Y: float64(100 - 2*i), Iq: tia.Interval{Start: 0, End: 600}, K: 5, Alpha0: 0.5}
		if _, stats, err := tr.QueryCtx(ctx, q, nil); err != nil || stats.ResultCacheHit {
			t.Fatalf("distinct query %d: hit %v, err %v", i, stats.ResultCacheHit, err)
		}
	}
	if s := cache.Snapshot(); s.Entries != 0 || s.Refused != distinct {
		t.Fatalf("after %d distinct queries: %d entries, %d refused; want 0 and %d",
			distinct, s.Entries, s.Refused, distinct)
	}
	for i, wantHit := range []bool{false, false, true} {
		_, stats, err := tr.QueryCtx(ctx, spanTestQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ResultCacheHit != wantHit {
			t.Errorf("asking %d: result-cache hit = %v, want %v", i+1, stats.ResultCacheHit, wantHit)
		}
	}
	if s := cache.Snapshot(); s.Entries != 1 {
		t.Errorf("entries %d after the repeated query, want 1", s.Entries)
	}
}

// TestCacheInvalidationOnMutation pins the invalidation rule: every change
// to what a query reads — epoch flush, POI insert and delete, rebuilds —
// bumps the shared cache's version, and a buffered check-in, which no query
// reads, does not.
func TestCacheInvalidationOnMutation(t *testing.T) {
	cache := aggcache.New(1 << 20)
	opts := defaultOpts(TAR3D)
	opts.Cache = cache
	tr := mustTree(t, opts)
	bumped := func(step string, mutate func() error) {
		t.Helper()
		before := cache.Version()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if cache.Version() <= before {
			t.Errorf("%s did not bump the cache version", step)
		}
	}
	bumped("InsertPOI", func() error { return tr.InsertPOI(POI{ID: 1, X: 10, Y: 10}, nil) })
	before := cache.Version()
	if err := tr.AddCheckIn(1, 5); err != nil {
		t.Fatal(err)
	}
	if cache.Version() != before {
		t.Error("a buffered check-in bumped the cache version")
	}
	bumped("FlushEpochs", func() error { return tr.FlushEpochs(10) })
	bumped("Rebuild", func() error { return tr.Rebuild() })
	bumped("DeletePOI", func() error {
		removed, err := tr.DeletePOI(1)
		if err == nil && !removed {
			t.Fatal("DeletePOI found nothing")
		}
		return err
	})
}

// TestCacheConservation extends the conservation check to a cache-enabled
// tree: every query makes one result-cache lookup, the per-query
// CacheHits/CacheMisses sum to the cache's own counters, and the TIA
// counters still count only real backend reads and still sum to exactly
// the factory's delta.
func TestCacheConservation(t *testing.T) {
	cache := aggcache.New(1 << 20)
	tr := buildAccountingTreeOpts(t, Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		Grouping:    TAR3D,
		EpochStart:  0,
		EpochLength: 100,
		TIA:         tia.NewBTreeFactory(256, 10),
		Cache:       cache,
	})
	ledger := tr.Options().TIA.Ledger()
	base := ledger.Stats()
	queries := []Query{
		{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5},
		{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5}, // second sight: stored
		{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5}, // warm repeat
		{X: 10, Y: 80, Iq: tia.Interval{Start: 100, End: 400}, K: 5, Alpha0: 0.3},
	}
	var sum QueryStats
	for i, q := range queries {
		_, stats, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.CacheHits+stats.CacheMisses != 1 || stats.ResultCacheHit != (stats.CacheHits == 1) {
			t.Errorf("query %d: %d hits and %d misses (result hit %v), want one lookup",
				i, stats.CacheHits, stats.CacheMisses, stats.ResultCacheHit)
		}
		sum.Merge(&stats)
	}
	checkLedgerReads(t, ledger, base, &sum)
	snap := cache.Snapshot()
	if snap.Hits != sum.CacheHits || snap.Misses != sum.CacheMisses || snap.Hits == 0 {
		t.Errorf("cache counted %d hits and %d misses, the queries %d and %d",
			snap.Hits, snap.Misses, sum.CacheHits, sum.CacheMisses)
	}
}
