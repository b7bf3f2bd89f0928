package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/tia"
)

// explainBackends mirrors the cache-equivalence backend set so the
// conservation identity below is pinned for every storage engine.
func explainBackends() map[string]func() tia.Factory {
	return map[string]func() tia.Factory{
		"mem":   func() tia.Factory { return tia.NewMemFactory() },
		"btree": func() tia.Factory { return tia.NewBTreeFactory(256, 10) },
		"mvbt":  func() tia.Factory { return tia.NewMVBTFactory(1024, 10) },
	}
}

func explainTreeOpts(g Grouping, fac tia.Factory) Options {
	return Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		Grouping:    g,
		EpochStart:  0,
		EpochLength: 100,
		TIA:         fac,
	}
}

// checkConservation asserts the explain recorder's independent tallies
// reconcile exactly with the query's QueryStats: node accesses (total and
// the leaf row of the per-level breakdown), logical and physical TIA reads,
// and cache probe counts. The two sides are recorded at different sites —
// QueryStats in the search/scorer accounting, Explain at its own hooks — so
// equality here means no instrumented site is missed or double-counted.
func checkConservation(t *testing.T, ex *Explain, stats QueryStats) {
	t.Helper()
	if got, want := ex.NodeAccesses(), int64(stats.InternalAccesses+stats.LeafAccesses); got != want {
		t.Errorf("explain NodeAccesses = %d, stats say %d", got, want)
	}
	if len(ex.NodeAccessesByLevel) > 0 {
		if got, want := ex.NodeAccessesByLevel[0], int64(stats.LeafAccesses); got != want {
			t.Errorf("explain leaf accesses = %d, stats.LeafAccesses = %d", got, want)
		}
	}
	if ex.TIAReads != stats.TIAAccesses {
		t.Errorf("explain TIAReads = %d, stats.TIAAccesses = %d", ex.TIAReads, stats.TIAAccesses)
	}
	if ex.TIAPhysical != stats.TIAPhysical {
		t.Errorf("explain TIAPhysical = %d, stats.TIAPhysical = %d", ex.TIAPhysical, stats.TIAPhysical)
	}
	if ex.CacheHits != stats.CacheHits {
		t.Errorf("explain CacheHits = %d, stats.CacheHits = %d", ex.CacheHits, stats.CacheHits)
	}
	if ex.CacheMisses != stats.CacheMisses {
		t.Errorf("explain CacheMisses = %d, stats.CacheMisses = %d", ex.CacheMisses, stats.CacheMisses)
	}
}

// TestExplainConservation is the acceptance contract of the explain
// recorder: for every grouping × TIA backend, on both a selective and an
// exhaustive query, the recorder's node-access, TIA-read and cache tallies
// equal the QueryStats counterparts exactly, the pop log and convergence
// timeline are internally consistent, and attaching the recorder does not
// change the answer.
func TestExplainConservation(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for name, newFac := range explainBackends() {
			t.Run(g.String()+"/"+name, func(t *testing.T) {
				tr := buildAccountingTreeOpts(t, explainTreeOpts(g, newFac()))
				queries := []Query{
					{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 25, Alpha0: 0.5},
					exhaustiveQuery(tr),
				}
				for _, q := range queries {
					plain, _, err := tr.QueryCtx(context.Background(), q, nil)
					if err != nil {
						t.Fatal(err)
					}
					ex := NewExplain()
					res, stats, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Explain: ex})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, plain) {
						t.Fatalf("k=%d: explained query answers differently from plain query", q.K)
					}
					checkConservation(t, ex, stats)

					// Search-shape forensics: every pop is logged (below the
					// cap), every popped POI became a result, the heap
					// high-water mark is real, and Finish sealed the outcome.
					if ex.Pops == 0 || ex.HeapMax == 0 {
						t.Fatalf("k=%d: empty search forensics: pops=%d heapMax=%d", q.K, ex.Pops, ex.HeapMax)
					}
					if ex.LogTruncated {
						t.Fatalf("k=%d: pop log truncated on a %d-POI tree", q.K, tr.Len())
					}
					if len(ex.PopLog) != ex.Pops {
						t.Errorf("k=%d: pop log has %d entries, Pops = %d", q.K, len(ex.PopLog), ex.Pops)
					}
					poiPops := 0
					for i, p := range ex.PopLog {
						if p.Seq != i+1 {
							t.Fatalf("k=%d: pop %d has seq %d", q.K, i, p.Seq)
						}
						if p.Level == -1 {
							poiPops++
						}
					}
					if poiPops != len(res) {
						t.Errorf("k=%d: %d POI pops but %d results", q.K, poiPops, len(res))
					}
					if len(ex.Convergence) != len(res) {
						t.Errorf("k=%d: convergence has %d points for %d results", q.K, len(ex.Convergence), len(res))
					}
					if ex.Results != len(res) {
						t.Errorf("k=%d: Results = %d, want %d", q.K, ex.Results, len(res))
					}
					if len(res) > 0 && ex.ActualFk != res[len(res)-1].Score {
						t.Errorf("k=%d: ActualFk = %v, want last score %v", q.K, ex.ActualFk, res[len(res)-1].Score)
					}

					// The frontier is what the Property-1 bound pruned: a
					// selective search leaves one, the exhaustive search by
					// definition leaves nothing.
					if q.K == tr.Len() {
						if ex.FrontierSize != 0 {
							t.Errorf("exhaustive search left a frontier of %d", ex.FrontierSize)
						}
					} else if ex.FrontierSize == 0 {
						t.Errorf("k=%d: selective search pruned nothing", q.K)
					}
					if !ex.FrontierTruncated && len(ex.Frontier) != ex.FrontierSize {
						t.Errorf("k=%d: frontier snapshot has %d of %d entries without truncation",
							q.K, len(ex.Frontier), ex.FrontierSize)
					}
					for i := 1; i < len(ex.Frontier); i++ {
						if ex.Frontier[i].Bound < ex.Frontier[i-1].Bound {
							t.Fatalf("k=%d: frontier not sorted by bound at %d", q.K, i)
						}
					}
				}
			})
		}
	}
}

// TestExplainResultCache pins the recorder's cache semantics on a cached
// tree: the cold run reconciles with stats (result-cache miss included),
// the warm run is a pure result-cache hit with zero search forensics, and
// NoCache suppresses every cache probe from both sides of the ledger.
func TestExplainResultCache(t *testing.T) {
	opts := explainTreeOpts(TAR3D, tia.NewBTreeFactory(256, 10))
	opts.Cache = aggcache.New(1 << 20)
	tr := buildAccountingTreeOpts(t, opts)
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5}

	cold := NewExplain()
	_, coldStats, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Explain: cold})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, cold, coldStats)
	if cold.ResultCacheHit {
		t.Fatal("cold query claims a result-cache hit")
	}
	if cold.CacheMisses == 0 {
		t.Fatal("cold query on a cached tree recorded no cache misses")
	}
	// The cache stores a result the second time it is computed.
	if _, _, err := tr.QueryCtx(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}

	warm := NewExplain()
	res, warmStats, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Explain: warm})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, warm, warmStats)
	if !warm.ResultCacheHit || !warmStats.ResultCacheHit {
		t.Fatalf("warm repeat not served from the result cache (explain %v, stats %v)",
			warm.ResultCacheHit, warmStats.ResultCacheHit)
	}
	if warm.Pops != 0 || warm.NodeAccesses() != 0 || warm.TIAReads != 0 {
		t.Errorf("result-cache hit did search work: pops=%d nodes=%d tia=%d",
			warm.Pops, warm.NodeAccesses(), warm.TIAReads)
	}
	if warm.Results != len(res) || warm.ActualFk != res[len(res)-1].Score {
		t.Errorf("result-cache hit explain outcome = (%d, %v), want (%d, %v)",
			warm.Results, warm.ActualFk, len(res), res[len(res)-1].Score)
	}

	nocache := NewExplain()
	_, ncStats, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Explain: nocache, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, nocache, ncStats)
	if nocache.CacheHits != 0 || nocache.CacheMisses != 0 || nocache.ResultCacheHit {
		t.Errorf("NoCache query recorded cache probes: hits=%d misses=%d resultHit=%v",
			nocache.CacheHits, nocache.CacheMisses, nocache.ResultCacheHit)
	}
	if nocache.Pops == 0 {
		t.Error("NoCache query did not search")
	}
}

// TestExplainCanceledQuery checks the cancellation contract: the explain of
// a query aborted mid-search is finished, carries the partial counts that
// still reconcile with the partial stats, records the error, and reports
// the frontier at the moment the search stopped instead of swallowing it.
func TestExplainCanceledQuery(t *testing.T) {
	tr := buildAccountingTreeOpts(t, explainTreeOpts(TAR3D, tia.NewBTreeFactory(256, 10)))
	ctx := &stepCtx{Context: context.Background(), limit: 10}
	ex := NewExplain()
	res, stats, err := tr.QueryCtx(ctx, exhaustiveQuery(tr), &QueryOpts{Explain: ex})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("canceled query returned %d results", len(res))
	}
	checkConservation(t, ex, stats)
	if ex.Err == "" {
		t.Error("canceled explain has no error")
	}
	if ex.Pops == 0 {
		t.Error("canceled explain recorded no pops before the abort")
	}
	if ex.FrontierSize == 0 {
		t.Error("canceled explain lost the partial frontier")
	}
	if ex.Results != 0 {
		t.Errorf("canceled explain Results = %d", ex.Results)
	}
}

// TestExplainNilRecorderNoAllocs pins the disabled state's cost: every
// recorder method on a nil *Explain must allocate nothing, so the unexplained
// query path pays only the pointer tests.
func TestExplainNilRecorderNoAllocs(t *testing.T) {
	var e *Explain
	s := &Search{}
	allocs := testing.AllocsPerRun(100, func() {
		e.recordNodeAccess(3)
		e.recordPush(7)
		e.recordPop(s, Elem{})
		e.recordResult(1, 0.5)
		e.captureFrontier(s)
		e.Finish(nil, QueryStats{}, nil)
		if e.NodeAccesses() != 0 {
			t.Fatal("nil recorder counted accesses")
		}
		if e.Summary() != nil {
			t.Fatal("nil recorder produced a summary")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkQuery_Bare / BenchmarkQuery_Explain measure the recorder's
// overhead on the same query: Bare is the nil-recorder baseline the
// no-allocs test pins, Explain pays for the pop log, frontier snapshot and
// convergence timeline.
func BenchmarkQuery_Bare(b *testing.B) {
	tr := buildAccountingTreeOpts(b, explainTreeOpts(TAR3D, tia.NewBTreeFactory(256, 10)))
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.QueryCtx(context.Background(), q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_Explain(b *testing.B) {
	tr := buildAccountingTreeOpts(b, explainTreeOpts(TAR3D, tia.NewBTreeFactory(256, 10)))
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Explain: NewExplain()}); err != nil {
			b.Fatal(err)
		}
	}
}
