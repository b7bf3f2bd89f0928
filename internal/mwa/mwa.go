// Package mwa implements the minimum weight adjustment (MWA) of Section
// 7.1: given the top-k results of a kNNTA query, find the nearest values of
// α0 (one below, one above the current weight) at which the top-k set
// changes.
//
// Two algorithms are provided, matching the paper's experiment in Section
// 8.3: Enumerating — the straightforward approach that continues the
// best-first search to exhaustion and checks every entry against every
// top-k POI with only dominance pruning — and Pruning, which interchanges
// only the POIs on two skylines: the reversed skyline of the top-k set and
// the skyline of the lower-ranked POIs (computed with BBS over the
// TAR-tree).
package mwa

import (
	"tartree/internal/core"
	"tartree/internal/skyline"
)

// Adjustment is the minimum weight adjustment for α0: the current top-k set
// changes as soon as α0 drops below Lower or exceeds Upper.
type Adjustment struct {
	Lower    float64
	HasLower bool
	Upper    float64
	HasUpper bool
}

// Gamma returns the swap boundary γ(i, j) for a top-k POI i and a lower
// ranked POI j, where δt = si,t − sj,t. The boundary exists only when the
// deltas have opposite signs (otherwise one POI dominates the other and no
// weight exchanges them); the second result reports existence, the third
// whether the boundary lies above the current weight (δ0 > 0).
func Gamma(d0, d1 float64) (gamma float64, ok, upper bool) {
	if d0*d1 >= 0 {
		return 0, false, false
	}
	return d1 / (d1 - d0), true, d0 > 0
}

// fold accumulates a swap boundary into the adjustment: the MWA keeps the
// largest boundary below the current weight and the smallest above it.
func (a *Adjustment) fold(gamma float64, upper bool) {
	if upper {
		if !a.HasUpper || gamma < a.Upper {
			a.Upper, a.HasUpper = gamma, true
		}
	} else {
		if !a.HasLower || gamma > a.Lower {
			a.Lower, a.HasLower = gamma, true
		}
	}
}

// foldPair folds the boundary of the pair (top-k point i, lower point j).
func (a *Adjustment) foldPair(i, j skyline.Point) {
	if g, ok, upper := Gamma(i.S0-j.S0, i.S1-j.S1); ok {
		a.fold(g, upper)
	}
}

// FromPoints computes the MWA from explicit score components: topk are the
// current results, lower the remaining POIs. It is the reference
// implementation used by the paper's Table 3 example and by tests.
func FromPoints(topk, lower []skyline.Point) Adjustment {
	var a Adjustment
	for _, i := range topk {
		for _, j := range lower {
			a.foldPair(i, j)
		}
	}
	return a
}

func toPoints(rs []core.Result) []skyline.Point {
	pts := make([]skyline.Point, len(rs))
	for i, r := range rs {
		pts[i] = skyline.Point{ID: r.POI.ID, S0: r.S0, S1: r.S1}
	}
	return pts
}

// Enumerating computes the top-k and the MWA with the paper's
// straightforward approach: for each of the top-k POIs p, the best-first
// search is continued until the queue is empty, skipping only the entries
// dominated by p. This enumerates each top-k result against the lower
// ranked POIs and has very weak pruning power, which is exactly why the
// paper proposes the skyline-based algorithm.
func Enumerating(t *core.Tree, q core.Query) ([]core.Result, Adjustment, core.QueryStats, error) {
	var stats core.QueryStats
	cache := make(core.AggCache)
	s, err := t.NewSearch(q, &stats, cache)
	if err != nil {
		return nil, Adjustment{}, stats, err
	}
	topk := make([]core.Result, 0, min(q.K, t.Len()))
	for len(topk) < q.K {
		r, err := s.Next()
		if err != nil {
			return nil, Adjustment{}, stats, err
		}
		if r == nil {
			break
		}
		topk = append(topk, *r)
	}
	inTopK := make(map[int64]bool, len(topk))
	for _, r := range topk {
		inTopK[r.POI.ID] = true
	}
	gmax := s.Scorer().Gmax()
	var adj Adjustment
	for _, p := range toPoints(topk) {
		// One full BFS continuation per top-k POI, pruned only by p's
		// dominance.
		pass, err := t.NewSearchWith(q, core.SearchOptions{Stats: &stats, Cache: cache, Gmax: &gmax})
		if err != nil {
			return nil, Adjustment{}, stats, err
		}
		for {
			el, ok := pass.Pop()
			if !ok {
				break
			}
			if p.S0 <= el.S0 && p.S1 <= el.S1 {
				continue // p dominates the entry: nothing below can swap with p
			}
			if el.IsPOI() {
				r := pass.Result(el)
				if inTopK[r.POI.ID] {
					continue
				}
				adj.foldPair(p, skyline.Point{ID: r.POI.ID, S0: el.S0, S1: el.S1})
				continue
			}
			if err := pass.Expand(el); err != nil {
				return nil, Adjustment{}, stats, err
			}
		}
	}
	return topk, adj, stats, nil
}

// Pruning computes the top-k and the MWA with the skyline approach of
// Section 7.1: (i) the reversed skyline of the top-k POIs, (ii) the BBS
// skyline of the lower-ranked POIs over the TAR-tree, (iii) the boundaries
// interchanging POIs across the two skylines.
func Pruning(t *core.Tree, q core.Query) ([]core.Result, Adjustment, core.QueryStats, error) {
	var stats core.QueryStats
	cache := make(core.AggCache)
	s, err := t.NewSearch(q, &stats, cache)
	if err != nil {
		return nil, Adjustment{}, stats, err
	}
	topk := make([]core.Result, 0, min(q.K, t.Len()))
	for len(topk) < q.K {
		r, err := s.Next()
		if err != nil {
			return nil, Adjustment{}, stats, err
		}
		if r == nil {
			break
		}
		topk = append(topk, *r)
	}
	// (i) Reversed skyline of the top-k (in memory; no node accesses).
	tops := skyline.OfReversed(toPoints(topk))
	// (ii) Skyline of the lower-ranked POIs via BBS. A fresh search shares
	// the scorer's aggregate cache, so TIAs already read are not re-read.
	exclude := make(map[int64]bool, len(topk))
	for _, r := range topk {
		exclude[r.POI.ID] = true
	}
	gmax := s.Scorer().Gmax()
	bbs, err := t.NewSearchWith(q, core.SearchOptions{Stats: &stats, Cache: cache, Gmax: &gmax})
	if err != nil {
		return nil, Adjustment{}, stats, err
	}
	lower, err := skyline.BBS(bbs, exclude)
	if err != nil {
		return nil, Adjustment{}, stats, err
	}
	// (iii) Boundaries across the two skylines.
	adj := FromPoints(tops, lower)
	return topk, adj, stats, nil
}
