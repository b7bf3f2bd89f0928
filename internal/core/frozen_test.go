package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"tartree/internal/obs"
	"tartree/internal/tia"
)

// flatTestQueries covers a selective top-k, an exhaustive drain and two
// weight extremes (near-pure-distance and near-pure-aggregate ranking).
func flatTestQueries(tr *Tree) []Query {
	return []Query{
		{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 25, Alpha0: 0.5},
		{X: 12, Y: 88, Iq: tia.Interval{Start: 100, End: 400}, K: 10, Alpha0: 0.9},
		{X: 97, Y: 3, Iq: tia.Interval{Start: 200, End: 300}, K: 40, Alpha0: 0.1},
		exhaustiveQuery(tr),
	}
}

// checkAgainstScan compares a search answer with the Section 3.2 sequential
// scan over the POI registry (bruteForceQuery) rank by rank: the same POI,
// the same score bits and the same aggregate. Both rank in CompareResults'
// order, so POIs whose scores tie leave nothing to choose.
func checkAgainstScan(t *testing.T, tr *Tree, q Query, got []Result) {
	t.Helper()
	scan := bruteForceQuery(t, tr, q)
	if len(got) != len(scan) {
		t.Fatalf("%d results, scan has %d (q=%+v)", len(got), len(scan), q)
	}
	for i, r := range got {
		if w := scan[i]; r.POI.ID != w.POI.ID || math.Float64bits(r.Score) != math.Float64bits(w.Score) || r.Agg != w.Agg {
			t.Fatalf("rank %d: POI %d score %v agg %d, scan has POI %d score %v agg %d (q=%+v)",
				i, r.POI.ID, r.Score, r.Agg, w.POI.ID, w.Score, w.Agg, q)
		}
	}
}

// TestFlatSearchMatchesScan is the search's answer identity: for both
// matching semantics, both aggregate folds and all three groupings, on the
// default (in-memory) TIAs a server runs and on both paged backends, the
// best-first search over the flat layout returns what the sequential scan
// returns, while check-in ingest — new epochs and back-dated check-ins into
// epochs that already hold data — and structural mutations interleave with
// the queries. The structural mutations are chosen to change the answer of
// the very next query — the inserted POI sits on the query point with the
// largest aggregate, the deleted one is the previous answer's best — so a
// search that read a stale layout could not pass.
func TestFlatSearchMatchesScan(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for _, sem := range []tia.Semantics{tia.Contained, tia.Intersecting} {
			for _, fn := range []tia.Func{tia.FuncSum, tia.FuncMax} {
				t.Run(fmt.Sprintf("%v/sem%d/fold%d", g, sem, fn), func(t *testing.T) {
					for _, b := range []struct {
						name    string
						factory tia.Factory // nil: the default, what a server runs
					}{
						{"default", nil},
						{"btree", tia.NewBTreeFactory(1024, 10)},
						{"mvbt", tia.NewMVBTFactory(1024, 10)},
					} {
						t.Run(b.name, func(t *testing.T) {
							opts := defaultOpts(g)
							opts.Semantics, opts.AggFunc, opts.TIA = sem, fn, b.factory
							flatSearchMatchesScan(t, opts)
						})
					}
				})
			}
		}
	}
}

func flatSearchMatchesScan(t *testing.T, opts Options) {
	tr, r := buildRandomTreeOpts(t, opts, 300, 77+int64(opts.Grouping))
	nextID, clock := int64(1000), int64(200)
	q := Query{X: 40, Y: 60, Iq: tia.Interval{Start: 5, End: 195}, K: 8, Alpha0: 0.5}
	query := func() []Result {
		t.Helper()
		got, _, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstScan(t, tr, q, got)
		return got
	}
	best := query()[0]
	for step := 0; step < 24; step++ {
		switch step % 4 {
		case 0: // check-in ingest: the layout stays, the aggregates move
			for i := 0; i < 40; i++ {
				id := int64(1 + r.Intn(300))
				if _, ok := tr.Lookup(id); !ok {
					continue // deleted in an earlier step
				}
				at := clock + int64(r.Intn(10))
				if i%4 == 3 { // back-dated, into an epoch that already holds data
					at = int64(r.Intn(int(clock)))
				}
				if err := tr.AddCheckIn(id, at); err != nil {
					t.Fatal(err)
				}
			}
			clock += 10
			if err := tr.FlushEpochs(clock); err != nil {
				t.Fatal(err)
			}
			q.Iq.End = clock + 5
		case 1: // a POI that must enter the answer at rank 1
			hist := []tia.Record{{Ts: 100, Te: 110, Agg: 100000 + int64(step)}}
			if err := tr.InsertPOI(POI{ID: nextID, X: q.X, Y: q.Y}, hist); err != nil {
				t.Fatal(err)
			}
			nextID++
		case 2: // the previous best must leave it
			if ok, err := tr.DeletePOI(best.POI.ID); err != nil || !ok {
				t.Fatalf("delete %d: %v %v", best.POI.ID, ok, err)
			}
		case 3:
			if err := tr.RebuildBulk(); err != nil {
				t.Fatal(err)
			}
		}
		if step%4 != 0 && tr.Frozen() {
			t.Fatalf("step %d: structural mutation kept the compiled layout", step)
		}
		got := query()
		switch step % 4 {
		case 1:
			if got[0].POI.ID != nextID-1 {
				t.Fatalf("step %d: inserted POI %d not at rank 1 of the next query", step, nextID-1)
			}
		case 2:
			for _, res := range got {
				if res.POI.ID == best.POI.ID {
					t.Fatalf("step %d: deleted POI %d still answered", step, best.POI.ID)
				}
			}
		}
		best = got[0]
		// A second, random query on the now compiled layout.
		q2 := Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: int64(r.Intn(100)), End: 101 + int64(r.Intn(int(clock)))},
			K:      1 + r.Intn(20),
			Alpha0: 0.05 + 0.9*r.Float64(),
		}
		got2, _, err := tr.QueryCtx(context.Background(), q2, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstScan(t, tr, q2, got2)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeLifecycle: the first search compiles the layout, Freeze on a
// compiled tree is a no-op, check-in ingest keeps the layout (its entries
// share the aggregate handles, so the flushed epochs are observed), and
// every structural mutation drops it until the next search.
func TestFreezeLifecycle(t *testing.T) {
	tr := buildAccountingTreeOpts(t, explainTreeOpts(TAR3D, tia.NewMemFactory()))
	if tr.Frozen() {
		t.Fatal("a tree nobody searched holds a compiled layout")
	}
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 700}, K: 15, Alpha0: 0.5}
	query := func() {
		t.Helper()
		got, _, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstScan(t, tr, q, got)
	}
	query()
	if !tr.Frozen() {
		t.Fatal("the first search did not install the layout it compiled")
	}
	if tr.rt != nil {
		t.Fatal("the compile kept the pointer tree")
	}
	f := tr.Freeze()
	if tr.Freeze() != f {
		t.Fatal("Freeze recompiled a compiled tree")
	}

	for i := 0; i < 50; i++ {
		if err := tr.AddCheckIn(int64(1+i%7), 610); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if tr.Freeze() != f {
		t.Fatal("check-in ingest dropped the compiled layout")
	}
	query() // sees the flushed epoch through the shared aggregate handles

	for _, m := range []struct {
		name   string
		mutate func() error
	}{
		{"InsertPOI", func() error { return tr.InsertPOI(POI{ID: 9001, X: 1, Y: 1}, nil) }},
		{"DeletePOI", func() error { _, err := tr.DeletePOI(9001); return err }},
		{"Rebuild", tr.Rebuild},
		{"RebuildBulk", tr.RebuildBulk},
		{"Unfreeze", func() error { tr.Unfreeze(); return nil }},
	} {
		if err := m.mutate(); err != nil {
			t.Fatal(err)
		}
		if tr.Frozen() {
			t.Fatalf("%s left a stale compiled layout", m.name)
		}
		query()
		if !tr.Frozen() || tr.Freeze() == f {
			t.Fatalf("the search after %s did not compile a fresh layout", m.name)
		}
		if tr.rt != nil {
			t.Fatalf("the compile after %s kept the pointer tree", m.name)
		}
	}
}

// TestServingTreeHoldsNoPointerTree: a serving tree holds the flat layout
// alone — after a build and its compile, after a flush, with the columns
// and without them (a FuncMax tree, a paged factory), and after a v3 load —
// while a structural mutation thaws the pointer tree back from the layout,
// and the search after it answers as the scan does.
func TestServingTreeHoldsNoPointerTree(t *testing.T) {
	for _, c := range []struct {
		name string
		opts func() Options
		cols bool
	}{
		{"columns", func() Options { return explainTreeOpts(TAR3D, nil) }, true},
		{"FuncMax", func() Options {
			o := explainTreeOpts(TAR3D, nil)
			o.AggFunc = tia.FuncMax
			return o
		}, false},
		{"btree", func() Options { return explainTreeOpts(TAR3D, tia.NewBTreeFactory(256, 10)) }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			serving := func(stage string, tr *Tree) {
				t.Helper()
				if tr.rt != nil {
					t.Fatalf("%s: the serving tree holds a pointer R*-tree", stage)
				}
				if l := tr.flat.Load(); l == nil || (l.cols != nil) != c.cols {
					t.Fatalf("%s: layout %v, want one with columns %v", stage, l, c.cols)
				}
			}
			tr := buildAccountingTreeOpts(t, c.opts())
			tr.Freeze()
			serving("build + Freeze", tr)
			for i := int64(0); i < 60; i++ {
				if err := tr.AddCheckIn(1+i*7%400, 600+i%150); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.FlushAll(); err != nil {
				t.Fatal(err)
			}
			serving("flush", tr)

			var image bytes.Buffer
			if err := tr.SaveSnapshot(&image); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshot(&image, c.opts().TIA)
			if err != nil {
				t.Fatal(err)
			}
			serving("v3 load", loaded)

			q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 800}, K: 15, Alpha0: 0.5}
			for _, m := range []struct {
				name   string
				mutate func() error
			}{
				{"InsertPOI", func() error {
					return loaded.InsertPOI(POI{ID: 9001, X: q.X, Y: q.Y}, []tia.Record{{Ts: 100, Te: 200, Agg: 1000}})
				}},
				{"DeletePOI", func() error { _, err := loaded.DeletePOI(9001); return err }},
			} {
				if err := m.mutate(); err != nil {
					t.Fatal(err)
				}
				if loaded.rt == nil || loaded.Frozen() {
					t.Fatalf("%s did not thaw the pointer tree and drop the layout", m.name)
				}
				got, _, err := loaded.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstScan(t, loaded, q, got)
				serving("the search after "+m.name, loaded)
			}
		})
	}
}

// TestLazyCompileConcurrent: when many readers issue the first query after a
// structural mutation at once, exactly one of them compiles the layout and
// all of them read it — same answers, same work. Run under -race.
func TestLazyCompileConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	opts := explainTreeOpts(TAR3D, tia.NewMemFactory())
	opts.Metrics = reg
	tr := buildAccountingTreeOpts(t, opts)
	compiles := reg.Counter("tartree_freezes_total")
	for round := int64(1); round <= 3; round++ {
		if err := tr.InsertPOI(POI{ID: 9000 + round, X: 50, Y: 50}, nil); err != nil {
			t.Fatal(err)
		}
		q := exhaustiveQuery(tr)
		const readers = 8
		results := make([][]Result, readers)
		stats := make([]QueryStats, readers)
		errs := make([]error, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[i], stats[i], errs[i] = tr.QueryCtx(context.Background(), q, nil)
			}()
		}
		close(start)
		wg.Wait()
		if got := compiles.Value(); got != round {
			t.Fatalf("round %d: %d compiles so far, want one per mutation", round, got)
		}
		for i := 0; i < readers; i++ {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(results[i], results[0]) || !reflect.DeepEqual(stats[i], stats[0]) {
				t.Fatalf("round %d: reader %d disagrees with reader 0", round, i)
			}
		}
		checkAgainstScan(t, tr, q, results[0])
	}
}
