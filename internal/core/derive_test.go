package core

import (
	"math/rand"
	"slices"
	"testing"

	"tartree/internal/tia"
)

// checkChildMaxima requires every internal entry of tr's compiled layout to
// hold, per epoch, the maximum over its child node's entries (Section 4.1),
// read where the values live: the columns, else the entries' TIAs. It
// returns the number of internal entries it checked.
func checkChildMaxima(t *testing.T, tr *Tree) int {
	t.Helper()
	l := tr.compiled()
	ft := l.ft
	recs := func(eid int32) []tia.Record {
		if l.cols != nil {
			return l.cols.derive(nil, eid)
		}
		return tiaOf(ft.Data[eid]).Records()
	}
	checked := 0
	for eid, child := range ft.Children {
		if child < 0 {
			continue
		}
		var want tia.Index
		cn := ft.Nodes[child]
		for ce := cn.Start; ce < cn.Start+cn.Count; ce++ {
			want.MaxMerge(recs(ce)) //nolint:errcheck // in memory: cannot fail
		}
		if got := recs(int32(eid)); !slices.Equal(got, want.Records()) {
			t.Fatalf("internal entry %d holds %v, its children's maxima are %v", eid, got, want.Records())
		}
		checked++
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	return checked
}

// randomHistory draws a POI's records on defaultOpts' grid: 2 … 12 epochs
// of 0 … 19, each with an aggregate of 1 … 40.
func randomHistory(r *rand.Rand) []tia.Record {
	var hist []tia.Record
	for _, ep := range r.Perm(20)[:2+r.Intn(11)] {
		hist = append(hist, tia.Record{Ts: int64(ep) * 10, Te: int64(ep)*10 + 10, Agg: 1 + r.Int63n(40)})
	}
	slices.SortFunc(hist, func(a, b tia.Record) int { return int(a.Ts - b.Ts) })
	return hist
}

// TestInternalAggregatesAreChildMaxima checks that an internal entry's TIA
// is the per-epoch maximum of its child node's, whether the compile derives
// it (the spatial groupings over in-memory TIAs, in the columns or, for
// FuncMax, as records) or treeAug keeps it through the build (IND-agg, and
// paged TIAs): after the build, after POIs are inserted into and deleted
// from the compiled tree (thaw, mutate, recompile), and after an epoch
// flush patches the layout.
func TestInternalAggregatesAreChildMaxima(t *testing.T) {
	for _, c := range []struct {
		name    string
		g       Grouping
		tia     tia.Factory
		fn      tia.Func
		derives bool
	}{
		{"TAR3D", TAR3D, nil, tia.FuncSum, true},
		{"IND-spa", IndSpa, nil, tia.FuncSum, true},
		{"TAR3D max", TAR3D, nil, tia.FuncMax, true},
		{"IND-agg", IndAgg, nil, tia.FuncSum, false},
		{"TAR3D B+-tree", TAR3D, tia.NewBTreeFactory(1024, 10), tia.FuncSum, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := defaultOpts(c.g)
			opts.NodeSize, opts.TIA, opts.AggFunc = 256, c.tia, c.fn
			tr, r := mustTree(t, opts), rand.New(rand.NewSource(17))
			for id := int64(1); id <= 600; id++ {
				if err := tr.InsertPOI(POI{ID: id, X: r.Float64() * 100, Y: r.Float64() * 100}, randomHistory(r)); err != nil {
					t.Fatal(err)
				}
			}
			if tr.derives() != c.derives || (tr.rstarConfig().Aug == nil) != c.derives {
				t.Fatalf("derives() = %v, want %v", tr.derives(), c.derives)
			}
			if cols := tr.compiled().cols != nil; cols != (c.fn == tia.FuncSum && c.tia == nil) {
				t.Fatalf("columns: %v", cols)
			}
			if tr.Height() < 3 {
				t.Fatalf("height %d: no internal entry has internal children", tr.Height())
			}
			if n := checkChildMaxima(t, tr); n == 0 {
				t.Fatal("no internal entry checked")
			}

			for i := 0; i < 60; i++ {
				p := POI{ID: int64(1000 + i), X: r.Float64() * 100, Y: r.Float64() * 100}
				if err := tr.InsertPOI(p, randomHistory(r)); err != nil {
					t.Fatal(err)
				}
				if ok, err := tr.DeletePOI(int64(1 + r.Intn(600))); err != nil {
					t.Fatal(err)
				} else if ok {
					checkChildMaxima(t, tr)
				}
			}
			checkChildMaxima(t, tr)

			var ids []int64
			tr.POIs(func(p POI, _ int64) bool {
				ids = append(ids, p.ID)
				return true
			})
			slices.Sort(ids)
			for i := 0; i < 300; i++ {
				if err := tr.AddCheckIn(ids[r.Intn(len(ids))], r.Int63n(230)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.FlushEpochs(230); err != nil {
				t.Fatal(err)
			}
			checkChildMaxima(t, tr)
		})
	}
}
