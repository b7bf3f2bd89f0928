package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/pagestore"
	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// buildAccountingTree indexes a deterministic grid of POIs with small nodes
// so the tree has several levels under every grouping.
func buildAccountingTree(t testing.TB, g Grouping) *Tree {
	t.Helper()
	return buildAccountingTreeOpts(t, Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		Grouping:    g,
		EpochStart:  0,
		EpochLength: 100,
	})
}

func buildAccountingTreeOpts(t testing.TB, opts Options) *Tree {
	t.Helper()
	tr, err := NewTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	id := int64(0)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			id++
			// Deterministic, poi-dependent histories spread over 6 epochs.
			var hist []tia.Record
			for e := int64(0); e < 6; e++ {
				agg := (id+e)%5 + 1
				hist = append(hist, tia.Record{Ts: e * 100, Te: (e + 1) * 100, Agg: agg})
			}
			p := POI{ID: id, X: float64(i*5 + 2), Y: float64(j*5 + 2)}
			if err := tr.InsertPOI(p, hist); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// walkCounts independently tallies the tree's shape by direct traversal:
// the numbers an exhaustive best-first search must reproduce in its
// QueryStats.
func walkCounts(root *rstar.Node) (internalNodes, leafNodes, entries int) {
	var walk func(n *rstar.Node)
	walk = func(n *rstar.Node) {
		if n.Level == 0 {
			leafNodes++
		} else {
			internalNodes++
		}
		entries += len(n.Entries)
		for _, e := range n.Entries {
			if e.Child != nil {
				walk(e.Child)
			}
		}
	}
	walk(root)
	return
}

// TestQueryStatsAccounting pins the meaning of the work counters for all
// three groupings: an exhaustive query (k = number of POIs) must expand
// every node exactly once, so InternalAccesses/LeafAccesses equal an
// independent traversal count, Scored equals the total number of entries,
// and the access identities hold.
func TestQueryStatsAccounting(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr := buildAccountingTreeOpts(t, Options{
				World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
				NodeSize:    256,
				Grouping:    g,
				EpochStart:  0,
				EpochLength: 100,
				TIA:         tia.NewBTreeFactory(256, 10), // TIA page accesses are asserted
			})
			internals, leaves, entries := walkCounts(tr.Root())
			if internals < 2 || leaves < 4 {
				t.Fatalf("tree too shallow for the test: %d internal, %d leaf nodes", internals, leaves)
			}
			// Cross-check the independent walk against the tree's own count.
			nl, ni := tr.NodeCount()
			if nl != leaves || ni != internals {
				t.Fatalf("walk found %d/%d nodes, NodeCount says %d/%d", leaves, internals, nl, ni)
			}

			q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: tr.Len(), Alpha0: 0.5}
			res, stats, err := tr.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != tr.Len() {
				t.Fatalf("exhaustive query returned %d of %d POIs", len(res), tr.Len())
			}
			if stats.InternalAccesses != internals {
				t.Errorf("InternalAccesses = %d, want %d", stats.InternalAccesses, internals)
			}
			if stats.LeafAccesses != leaves {
				t.Errorf("LeafAccesses = %d, want %d", stats.LeafAccesses, leaves)
			}
			if got := stats.RTreeAccesses(); got != internals+leaves {
				t.Errorf("RTreeAccesses = %d, want %d", got, internals+leaves)
			}
			if stats.Scored != entries {
				t.Errorf("Scored = %d, want %d (one per entry)", stats.Scored, entries)
			}
			if stats.TIAAccesses <= 0 {
				t.Errorf("TIAAccesses = %d, want > 0 with the disk backend", stats.TIAAccesses)
			}
			if stats.TIAPhysical < 0 || stats.TIAPhysical > stats.TIAAccesses {
				t.Errorf("TIAPhysical = %d outside [0, %d]", stats.TIAPhysical, stats.TIAAccesses)
			}
			if got := stats.NodeAccesses(); got != int64(internals+leaves)+stats.TIAAccesses {
				t.Errorf("NodeAccesses = %d, want RTree+TIA = %d", got, int64(internals+leaves)+stats.TIAAccesses)
			}

			// A k=1 query can never do more work than the exhaustive one.
			_, one, err := tr.QueryCtx(context.Background(), Query{X: 50, Y: 50, Iq: q.Iq, K: 1, Alpha0: 0.5}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if one.RTreeAccesses() > stats.RTreeAccesses() {
				t.Errorf("k=1 accesses %d exceed exhaustive %d", one.RTreeAccesses(), stats.RTreeAccesses())
			}
		})
	}
}

// TestInstrumentedTreeMetrics checks the Options.Metrics wiring end to end:
// after queries on an instrumented tree, the registry holds a nonzero
// latency histogram, matching work counters and per-backend probe totals,
// and no page series: the factory's ledger is read by queries and
// experiments, not exported.
func TestInstrumentedTreeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := buildAccountingTreeOpts(t, Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		EpochStart:  0,
		EpochLength: 100,
		TIA:         tia.NewBTreeFactory(256, 10), // a paged factory, yet no page series
		Metrics:     reg,
	})
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 5, Alpha0: 0.5}
	var want QueryStats
	for i := 0; i < 3; i++ {
		_, stats, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want.InternalAccesses += stats.InternalAccesses
		want.LeafAccesses += stats.LeafAccesses
		want.TIAAccesses += stats.TIAAccesses
		want.Scored += stats.Scored
	}
	if got := reg.Counter("tartree_queries_total").Value(); got != 3 {
		t.Errorf("queries_total = %d, want 3", got)
	}
	h := reg.Histogram("tartree_query_latency_seconds", nil)
	if h.Count() != 3 || h.Sum() <= 0 {
		t.Errorf("latency histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	if got := reg.Counter(`tartree_rtree_node_accesses_total{level="internal"}`).Value(); got != int64(want.InternalAccesses) {
		t.Errorf("internal accesses metric = %d, want %d", got, want.InternalAccesses)
	}
	if want.TIAAccesses == 0 {
		t.Error("the queries read no TIA page")
	}
	snap := reg.Snapshot()
	if v, ok := snap[`tartree_tia_probes_total{backend="btree"}`].(int64); !ok || v <= 0 {
		t.Errorf("btree probe counter = %v", snap[`tartree_tia_probes_total{backend="btree"}`])
	}
	for name := range snap {
		if strings.HasPrefix(name, "tartree_pagestore_") || strings.HasPrefix(name, "tartree_tia_page_reads_total") {
			t.Errorf("the registry exports page series %s", name)
		}
	}
}

// TestQuerySpanAggregates checks that a query whose span has aggregates on
// folds the expected names into one row each, and that tracing changes
// nothing about the query.
func TestQuerySpanAggregates(t *testing.T) {
	tr := buildAccountingTree(t, TAR3D)
	q := Query{X: 20, Y: 20, Iq: tia.Interval{Start: 0, End: 600}, K: 3, Alpha0: 0.5}
	root := obs.StartTrace("test", obs.SpanContext{}, obs.NewTraceRing(1))
	root.EnableAggregates()
	resTraced, statsTraced, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Span: root})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]obs.SpanStat)
	for _, s := range root.Aggregates() {
		rows[s.Name] = s
	}
	for _, name := range []string{"gmax", "queue_pop", "expand", "tia_probe"} {
		if rows[name].Count == 0 {
			t.Errorf("aggregate %q not recorded (have %v)", name, root.Aggregates())
		}
	}
	if len(rows) != 4 {
		t.Errorf("got %d aggregate rows, want the 4 names: %v", len(rows), root.Aggregates())
	}
	if c := rows["tia_probe"].Count; c != int64(statsTraced.Scored) {
		t.Errorf("tia_probe count = %d, want Scored = %d", c, statsTraced.Scored)
	}

	resBare, statsBare, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resBare) != len(resTraced) || statsBare != statsTraced {
		t.Errorf("tracing changed the query: %+v vs %+v", statsBare, statsTraced)
	}
}

// TestIOConservation is the page-read conservation check, for all three
// groupings and both paged backends: every query's flat TIA counters must
// (a) agree with EXPLAIN's tally of the same reads and (b) sum — across
// queries — to exactly what the TIA factory's ledger gained, which totals
// the underlying pagestore buffers' traffic.
func TestIOConservation(t *testing.T) {
	backends := map[string]func() tia.Factory{
		"btree": func() tia.Factory { return tia.NewBTreeFactory(256, 10) },
		"mvbt":  func() tia.Factory { return tia.NewMVBTFactory(1024, 10) },
	}
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for name, newFac := range backends {
			t.Run(g.String()+"/"+name, func(t *testing.T) {
				tr := buildAccountingTreeOpts(t, Options{
					World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
					NodeSize:    256,
					Grouping:    g,
					EpochStart:  0,
					EpochLength: 100,
					TIA:         newFac(),
				})
				ledger := tr.Options().TIA.Ledger()
				built := ledger.Stats()
				queries := []Query{
					{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: tr.Len(), Alpha0: 0.5},
					{X: 10, Y: 80, Iq: tia.Interval{Start: 100, End: 400}, K: 5, Alpha0: 0.3},
					{X: 95, Y: 5, Iq: tia.Interval{Start: 200, End: 600}, K: 1, Alpha0: 0.7},
					{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5},
				}
				var sum QueryStats
				for i, q := range queries {
					ex := NewExplain()
					_, stats, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Explain: ex})
					if err != nil {
						t.Fatal(err)
					}
					if err := reconcileTIA(&stats, ex); err != nil {
						t.Errorf("query %d: %v", i, err)
					}
					sum.Merge(&stats)
				}
				checkLedgerReads(t, ledger, built, &sum)
			})
		}
	}
}

// reconcileTIA checks a query's tallies of its TIA page reads against each
// other: the flat counters the scorer adds at each settle and, for a query
// under EXPLAIN (ex non-nil), the recorder's.
func reconcileTIA(stats *QueryStats, ex *Explain) error {
	if stats.TIAPhysical < 0 || stats.TIAPhysical > stats.TIAAccesses {
		return fmt.Errorf("%d physical reads outside [0, %d logical]", stats.TIAPhysical, stats.TIAAccesses)
	}
	if ex != nil && (ex.TIAReads != stats.TIAAccesses || ex.TIAPhysical != stats.TIAPhysical) {
		return fmt.Errorf("explain (%d logical, %d physical) != flat counters (%d, %d)",
			ex.TIAReads, ex.TIAPhysical, stats.TIAAccesses, stats.TIAPhysical)
	}
	return nil
}

// checkLedgerReads requires the page reads the ledger gained since built to
// be exactly the TIA reads the queries summed in sum counted.
func checkLedgerReads(t *testing.T, ledger *pagestore.Ledger, built pagestore.Stats, sum *QueryStats) {
	t.Helper()
	got := ledger.Stats().Sub(built)
	if got.LogicalReads != sum.TIAAccesses || got.PhysicalReads != sum.TIAPhysical {
		t.Errorf("the ledger gained %d logical and %d physical reads, the queries counted %d and %d",
			got.LogicalReads, got.PhysicalReads, sum.TIAAccesses, sum.TIAPhysical)
	}
	if sum.TIAAccesses == 0 {
		t.Error("conservation held but no TIA traffic was observed")
	}
}

// TestIOConservationConcurrent is the concurrent variant of the
// conservation check, for all three groupings: with 8 goroutines querying
// the same paged tree at once — plain queries, and per round one query
// canceled mid-search and one under EXPLAIN — each query's counters must
// still reconcile with its explain, and at quiescence the process-wide
// probe counter must hold exactly the probes the queries counted privately
// and added in bulk, the work a canceled query did up to its abort
// included. A query's page reads are a difference of two ledger readings,
// which under concurrency also takes in other queries' reads, so the
// ledger is only required to have gained no more reads than the queries
// counted (checkLedgerCovers). Run with -race.
func TestIOConservationConcurrent(t *testing.T) {
	backends := []struct {
		name string
		kind tia.BackendKind
		fac  func() tia.Factory
	}{
		{"btree", tia.KindBTree, func() tia.Factory { return tia.NewBTreeFactory(256, 10) }},
		{"mvbt", tia.KindMVBT, func() tia.Factory { return tia.NewMVBTFactory(1024, 10) }},
	}
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for _, be := range backends {
			t.Run(g.String()+"/"+be.name, func(t *testing.T) {
				tr := buildAccountingTreeOpts(t, Options{
					World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
					NodeSize:    256,
					Grouping:    g,
					EpochStart:  0,
					EpochLength: 100,
					TIA:         be.fac(),
				})
				ledger := tr.Options().TIA.Ledger()
				built := ledger.Stats()
				probesBefore := tia.ProbeCount(be.kind)

				const workers = 8
				const rounds = 4
				type tally struct {
					stats   QueryStats
					probes  int64 // entries scored plus one gmax probe per query
					aborted int
				}
				tallies := make([]tally, workers)
				errs := make(chan error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						r := rand.New(rand.NewSource(int64(w) * 97))
						query := func() Query {
							start := int64(r.Intn(4)) * 100
							return Query{
								X: r.Float64() * 100, Y: r.Float64() * 100,
								Iq:     tia.Interval{Start: start, End: start + 100 + int64(r.Intn(5))*100},
								K:      1 + r.Intn(20),
								Alpha0: 0.1 + 0.8*r.Float64(),
							}
						}
						// One round: two plain queries, one canceled after a
						// few pops and one run to the end, both under EXPLAIN.
						run := []func(ex *Explain) (QueryStats, error){
							func(*Explain) (QueryStats, error) {
								_, st, err := tr.QueryCtx(context.Background(), query(), nil)
								return st, err
							},
							func(*Explain) (QueryStats, error) {
								_, st, err := tr.QueryCtx(context.Background(), query(), nil)
								return st, err
							},
							func(ex *Explain) (QueryStats, error) {
								q := query()
								q.K = tr.Len()
								ctx := &stepCtx{Context: context.Background(), limit: int64(2 + r.Intn(6))}
								_, st, err := tr.QueryCtx(ctx, q, &QueryOpts{Explain: ex})
								if !errors.Is(err, ErrCanceled) {
									return st, fmt.Errorf("canceled query: err = %v, want ErrCanceled", err)
								}
								tallies[w].aborted++
								return st, nil
							},
							func(ex *Explain) (QueryStats, error) {
								_, st, err := tr.QueryCtx(context.Background(), query(), &QueryOpts{Explain: ex})
								return st, err
							},
						}
						for i := 0; i < rounds*len(run); i++ {
							var ex *Explain // nil for the plain queries
							if i%len(run) >= 2 {
								ex = NewExplain()
							}
							stats, err := run[i%len(run)](ex)
							if err != nil {
								errs <- err
								return
							}
							// Per-query reconciliation under load.
							if err := reconcileTIA(&stats, ex); err != nil {
								errs <- fmt.Errorf("worker %d query %d: %v", w, i, err)
								return
							}
							tallies[w].stats.Merge(&stats)
							tallies[w].probes += int64(stats.Scored) + 1
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}

				// Global conservation: the probes the queries counted, summed
				// across all goroutines, are what the probe totals gained.
				var sum QueryStats
				var probes int64
				aborted := 0
				for w := range tallies {
					sum.Merge(&tallies[w].stats)
					probes += tallies[w].probes
					aborted += tallies[w].aborted
				}
				checkLedgerCovers(t, ledger, built, &sum)
				if got := tia.ProbeCount(be.kind) - probesBefore; got != probes {
					t.Errorf("tia.ProbeCount gained %d, the queries made %d probes", got, probes)
				}
				if aborted != workers*rounds {
					t.Errorf("%d queries were canceled, want %d", aborted, workers*rounds)
				}
			})
		}
	}
}

// TestScrapeWhileQuerying runs the three parties of a serving process at
// once — queries that read the factory's ledger around each step, ingest
// that writes pages, and a /metrics scrape — under the lock discipline of
// the server (queries share the tree, an ingest batch has it alone; the
// scraper takes no lock). The ledger's counts only grow meanwhile, and
// afterwards it holds the ingest traffic plus no more page reads than the
// queries counted. Run with -race.
func TestScrapeWhileQuerying(t *testing.T) {
	reg := obs.NewRegistry()
	tr := buildAccountingTreeOpts(t, Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		EpochStart:  0,
		EpochLength: 100,
		TIA:         tia.NewBTreeFactory(256, 10),
		Metrics:     reg,
	})
	ledger := tr.Options().TIA.Ledger()
	built := ledger.Stats()

	const queriers, perQuerier, batches = 4, 40, 12
	var mu sync.RWMutex
	var wg, bg sync.WaitGroup
	errs := make(chan error, queriers+2)
	queried := make([]QueryStats, queriers)
	for w := 0; w < queriers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < perQuerier; i++ {
				start := int64(r.Intn(8)) * 100
				q := Query{
					X: r.Float64() * 100, Y: r.Float64() * 100,
					Iq: tia.Interval{Start: start, End: start + 100 + int64(r.Intn(10))*100},
					K:  1 + r.Intn(20), Alpha0: 0.1 + 0.8*r.Float64(),
				}
				mu.RLock()
				_, stats, err := tr.QueryCtx(context.Background(), q, nil)
				mu.RUnlock()
				if err != nil {
					errs <- err
					return
				}
				queried[w].Merge(&stats)
			}
		}()
	}
	var ingested pagestore.Stats
	wg.Add(1)
	go func() { // one closed epoch per batch; alone in the tree, so the ledger's gain is the batch's
		defer wg.Done()
		for e := int64(0); e < batches; e++ {
			mu.Lock()
			before := ledger.Stats()
			var err error
			for id := int64(1); id <= 40 && err == nil; id++ {
				err = tr.AddCheckIn(id*7, 600+e*100+id)
			}
			if err == nil {
				err = tr.FlushEpochs(600 + (e+1)*100)
			}
			gain := ledger.Stats().Sub(before)
			mu.Unlock()
			if err != nil {
				errs <- err
				return
			}
			ingested = ingested.Add(gain)
		}
	}()
	stop := make(chan struct{})
	bg.Add(1)
	go func() { // the scraper; the ledger's counts only grow
		defer bg.Done()
		last := built
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := reg.WriteTo(io.Discard); err != nil {
				errs <- err
				return
			}
			now := ledger.Stats()
			if now.Hits() < last.Hits() || now.Misses() < last.Misses() {
				errs <- fmt.Errorf("the ledger's reads went from %+v back to %+v", last, now)
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

	var sum QueryStats
	for w := range queried {
		sum.Merge(&queried[w])
	}
	if ingested.LogicalWrites == 0 {
		t.Fatalf("nothing to reconcile: ingest %+v", ingested)
	}
	checkLedgerCovers(t, ledger, built.Add(ingested), &sum)
}

// checkLedgerCovers requires the page reads the ledger gained since built
// to be some, and no more than the TIA reads the queries summed in sum
// counted: each read falls inside a reading window of the query that made
// it, and concurrent queries' windows may also take in each other's.
func checkLedgerCovers(t *testing.T, ledger *pagestore.Ledger, built pagestore.Stats, sum *QueryStats) {
	t.Helper()
	got := ledger.Stats().Sub(built)
	if got.LogicalReads == 0 || got.LogicalReads > sum.TIAAccesses || got.PhysicalReads > sum.TIAPhysical {
		t.Errorf("the ledger gained %d logical and %d physical reads, the queries counted %d and %d",
			got.LogicalReads, got.PhysicalReads, sum.TIAAccesses, sum.TIAPhysical)
	}
}

// TestFailedQueryCountedInBothMetricFamilies pins the agreement between the
// two metric families that count a query's probes: the per-backend probe
// totals (added in bulk at each step of the search) and the per-query work
// counters (taken from QueryStats when it ends). A query canceled
// mid-search has done real work, and both families must advance by it; its
// page reads are the factory ledger's gain.
func TestFailedQueryCountedInBothMetricFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	tr := buildAccountingTreeOpts(t, Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		EpochStart:  0,
		EpochLength: 100,
		TIA:         tia.NewBTreeFactory(256, 10),
		Metrics:     reg,
	})
	if _, _, err := tr.QueryCtx(context.Background(), exhaustiveQuery(tr), nil); err != nil { // build and warm-up traffic out of the way
		t.Fatal(err)
	}
	ledger := tr.Options().TIA.Ledger()
	reads0, scored0 := ledger.Stats(), reg.Counter("tartree_entries_scored_total").Value()
	probes0 := tia.ProbeCount(tia.KindBTree)

	ctx := &stepCtx{Context: context.Background(), limit: 10}
	_, stats, err := tr.QueryCtx(ctx, exhaustiveQuery(tr), nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.TIAAccesses == 0 {
		t.Fatal("the canceled query read no TIA page: nothing to compare")
	}
	if got := ledger.Stats().Sub(reads0).LogicalReads; got != stats.TIAAccesses {
		t.Errorf("the ledger gained %d reads, the canceled query counted %d", got, stats.TIAAccesses)
	}
	scored1 := reg.Counter("tartree_entries_scored_total").Value()
	if got, want := tia.ProbeCount(tia.KindBTree)-probes0, scored1-scored0+1; got != want {
		t.Errorf("tartree_tia_probes_total gained %d, tartree_entries_scored_total + gmax probe %d", got, want)
	}
	if got := reg.Counter("tartree_query_errors_total").Value(); got != 1 {
		t.Errorf("query_errors_total = %d, want 1", got)
	}
}

// TestQueryAllocsPerQuery pins the allocation budget of one uncached query:
// the scored entries live by value in the search's queue, whose backing
// array grows by doubling — a handful of objects, not one per entry.
func TestQueryAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	opts := defaultOpts(TAR3D)
	opts.TIA = tia.NewBTreeFactory(1024, 10)
	tr, r := buildRandomTreeOpts(t, opts, 3000, 7)
	tr.Freeze()
	noCache := &QueryOpts{NoCache: true}
	queries := make([]Query, 64)
	var scored int
	for i := range queries {
		queries[i] = benchQuery(r)
		_, st, err := tr.QueryCtx(context.Background(), queries[i], noCache) // faults the pages in
		if err != nil {
			t.Fatal(err)
		}
		scored += st.Scored
	}
	if per := scored / len(queries); per < 128 {
		t.Fatalf("queries score %d entries each: too few to tell a value queue from per-entry objects", per)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(queries), func() {
		if _, _, err := tr.QueryCtx(context.Background(), queries[i%len(queries)], noCache); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 23 {
		t.Errorf("one query allocates %.0f objects, want at most 23", allocs)
	}
	t.Logf("%.0f objects per query, %d entries scored", allocs, scored/len(queries))
}
