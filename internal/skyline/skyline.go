// Package skyline implements skyline computation in the (s0, s1) score
// space of a kNNTA query: a branch-and-bound skyline (BBS, after Papadias
// et al.) over the TAR-tree, and in-memory skylines over small point sets.
// The minimum-weight-adjustment algorithm of Section 7.1 interchanges POIs
// on (i) the reversed skyline of the top-k results and (ii) the skyline of
// the lower-ranked POIs, which BBS extracts without visiting dominated
// subtrees.
package skyline

import (
	"sort"

	"tartree/internal/core"
)

// Point is a POI projected into score space: S0 the normalized spatial
// distance, S1 = 1 − normalized aggregate.
type Point struct {
	ID     int64
	S0, S1 float64
}

// Dominates reports whether p dominates q under minimization: no worse in
// both coordinates and strictly better in at least one.
func (p Point) Dominates(q Point) bool {
	return p.S0 <= q.S0 && p.S1 <= q.S1 && (p.S0 < q.S0 || p.S1 < q.S1)
}

// DominatesReversed is dominance with both criteria maximized, used for the
// reversed skyline of the top-k set.
func (p Point) DominatesReversed(q Point) bool {
	return p.S0 >= q.S0 && p.S1 >= q.S1 && (p.S0 > q.S0 || p.S1 > q.S1)
}

// covers reports weak dominance of a point over an entry's lower bounds:
// sufficient to prune the whole subtree.
func covers(p Point, s0, s1 float64) bool {
	return p.S0 <= s0 && p.S1 <= s1
}

// Of computes the skyline of points in memory (minimization).
func Of(points []Point) []Point {
	return skylineBy(points, Point.Dominates, func(p Point) (float64, float64) { return p.S0, p.S1 })
}

// OfReversed computes the skyline with the dominating condition reversed
// (maximization), as Section 7.1 prescribes for the top-k set.
func OfReversed(points []Point) []Point {
	return skylineBy(points, Point.DominatesReversed, func(p Point) (float64, float64) { return -p.S0, -p.S1 })
}

// skylineBy sorts by the first coordinate and sweeps, keeping points whose
// second coordinate improves on everything seen.
func skylineBy(points []Point, dom func(a, b Point) bool, key func(Point) (float64, float64)) []Point {
	s := append([]Point(nil), points...)
	sort.Slice(s, func(i, j int) bool {
		a0, a1 := key(s[i])
		b0, b1 := key(s[j])
		if a0 != b0 {
			return a0 < b0
		}
		return a1 < b1
	})
	var out []Point
	for _, p := range s {
		dominated := false
		for _, q := range out {
			if dom(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// BBS runs a branch-and-bound skyline over the TAR-tree using an existing
// best-first search (whose queue is ordered by a monotone function of
// (s0, s1), so a POI that pops undominated is on the skyline). POIs whose
// id is in exclude — the current top-k — are skipped and never dominate,
// producing exactly the skyline of the lower-ranked POIs.
func BBS(s *core.Search, exclude map[int64]bool) ([]Point, error) {
	var sky []Point
	for {
		el, ok := s.Pop()
		if !ok {
			return sky, nil
		}
		dominated := false
		for _, p := range sky {
			if covers(p, el.S0, el.S1) {
				dominated = true
				break
			}
		}
		if dominated {
			continue // prune the subtree (or skip the dominated POI)
		}
		if el.IsPOI() {
			r := s.Result(el)
			if exclude[r.POI.ID] {
				continue
			}
			sky = append(sky, Point{ID: r.POI.ID, S0: el.S0, S1: el.S1})
			continue
		}
		if err := s.Expand(el); err != nil {
			return nil, err
		}
	}
}
