package core

import (
	"math/rand"
	"testing"

	"tartree/internal/tia"
)

// TestProperty1Consistency verifies the paper's Property 1 directly: for
// every query and every parent/child entry pair in the tree,
// f(e) <= f(ec) — the parent's score lower-bounds everything beneath it.
// This is the invariant that makes best-first search correct, and it must
// hold for every grouping strategy and for both aggregate functions.
func TestProperty1Consistency(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for _, fn := range []tia.Func{tia.FuncSum, tia.FuncMax} {
			g, fn := g, fn
			name := g.String() + "/sum"
			if fn == tia.FuncMax {
				name = g.String() + "/max"
			}
			t.Run(name, func(t *testing.T) {
				r := rand.New(rand.NewSource(500 + int64(g) + int64(fn)))
				opts := defaultOpts(g)
				opts.AggFunc = fn
				tr := mustTree(t, opts)
				for i := 1; i <= 400; i++ {
					var hist []tia.Record
					for ep := int64(0); ep < 20; ep++ {
						if r.Intn(3) == 0 {
							hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: int64(1 + r.Intn(30))})
						}
					}
					if err := tr.InsertPOI(POI{ID: int64(i), X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
						t.Fatal(err)
					}
				}
				for trial := 0; trial < 8; trial++ {
					q := Query{
						X: r.Float64() * 100, Y: r.Float64() * 100,
						Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(110 + r.Intn(90))},
						K:      5,
						Alpha0: 0.1 + 0.8*r.Float64(),
					}
					sc, err := tr.newScorer(q, nil, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					// Score what a search reads: the flat layout, and its
					// columns where they apply (FuncSum).
					l := tr.compiled()
					if (l.cols != nil) != (fn == tia.FuncSum) {
						t.Fatalf("columns compiled: %v, for %v", l.cols != nil, fn)
					}
					sc.useCols(l.cols)
					ft := l.ft
					scoreOf := func(eid int32) float64 {
						s0, s1, err := sc.components(ft.Rects[eid], eid, tiaOf(ft.Data[eid]))
						if err != nil {
							t.Fatal(err)
						}
						return sc.Score(s0, s1)
					}
					var walk func(id int32)
					walk = func(id int32) {
						n := ft.Nodes[id]
						for eid := n.Start; eid < n.Start+n.Count; eid++ {
							child := ft.Children[eid]
							if child < 0 {
								continue
							}
							parent := scoreOf(eid)
							c := ft.Nodes[child]
							for ceid := c.Start; ceid < c.Start+c.Count; ceid++ {
								if child := scoreOf(ceid); parent > child+1e-9 {
									t.Fatalf("Property 1 violated: f(e)=%.9f > f(ec)=%.9f (q=%+v)",
										parent, child, q)
								}
							}
							walk(child)
						}
					}
					walk(0)
				}
			})
		}
	}
}

// TestSearchYieldsSortedScores: the incremental Search returns POIs in
// globally non-decreasing score order — the optimality guarantee of
// best-first search per Hjaltason & Samet.
func TestSearchYieldsSortedScores(t *testing.T) {
	tr, r := buildRandomTree(t, TAR3D, 500, 909)
	for trial := 0; trial < 10; trial++ {
		q := Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: 0, End: 200},
			K:      1,
			Alpha0: 0.1 + 0.8*r.Float64(),
		}
		s, err := tr.NewSearch(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		count := 0
		for {
			res, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				break
			}
			if res.Score < prev-1e-12 {
				t.Fatalf("trial %d: score %.12f after %.12f", trial, res.Score, prev)
			}
			prev = res.Score
			count++
		}
		if count != tr.Len() {
			t.Fatalf("trial %d: drained %d POIs of %d", trial, count, tr.Len())
		}
	}
}
