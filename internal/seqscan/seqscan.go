// Package seqscan implements the straightforward approach of Section 3.2:
// answer a kNNTA query by adding up the per-epoch aggregates of every POI
// over the query interval, computing every ranking score, and keeping the
// top k. Its complexity is O(m'N + N log m + k log N); the paper uses it as
// the baseline every index variant is compared against.
package seqscan

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/tia"
)

// Scanner holds the POIs and their epoch aggregates in flat arrays.
type Scanner struct {
	world     geo.Rect
	maxDist   float64
	semantics tia.Semantics
	pois      []core.POI
	recs      [][]tia.Record // per POI, ascending by Ts
	global    *tia.Index     // per-epoch maxima (the normalization range)
}

// New creates an empty scanner over the given world rectangle.
func New(world geo.Rect, semantics tia.Semantics) *Scanner {
	return &Scanner{
		world:     world,
		maxDist:   world.Diagonal(2),
		semantics: semantics,
		global:    new(tia.Index),
	}
}

// Add registers a POI with its epoch aggregates (ascending, non-zero).
func (s *Scanner) Add(p core.POI, history []tia.Record) {
	s.pois = append(s.pois, p)
	recs := append([]tia.Record(nil), history...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Ts < recs[j].Ts })
	s.recs = append(s.recs, recs)
	for _, r := range recs {
		if cur, err := s.global.Aggregate(tia.Interval{Start: r.Ts, End: r.Ts + 1}, tia.Intersecting, tia.FuncSum); err == nil && r.Agg > cur {
			s.global.Put(r) //nolint:errcheck // Mem.Put cannot fail
		}
	}
	tia.AddProbes(tia.KindMem, int64(len(recs)))
}

// Len returns the number of POIs.
func (s *Scanner) Len() int { return len(s.pois) }

// Query scans every POI and returns the top-k results in
// core.CompareResults' order: ascending score, ties by POI id.
func (s *Scanner) Query(q core.Query) ([]core.Result, error) {
	res, _, err := s.QueryCtx(context.Background(), q, nil)
	return res, err
}

// cancelPollEvery is how many POIs QueryCtx scores between context polls.
const cancelPollEvery = 1024

// QueryCtx is Query as a core.Querier: the context is polled once per
// cancelPollEvery POIs and an aborted scan returns an error wrapping
// core.ErrCanceled. The scan reads no index, so the stats are zero and the
// options (cache, span, explain) have nothing to act on.
func (s *Scanner) QueryCtx(ctx context.Context, q core.Query, _ *core.QueryOpts) ([]core.Result, core.QueryStats, error) {
	var stats core.QueryStats
	if err := q.Validate(); err != nil {
		return nil, stats, err
	}
	tia.AddProbes(tia.KindMem, 1)
	gmaxI, err := s.global.Aggregate(q.Iq, s.semantics, tia.FuncSum)
	if err != nil {
		return nil, stats, err
	}
	gmax := float64(gmaxI)
	qv := geo.Vector{q.X, q.Y}
	// top holds the k best so far; once full it is a max-heap in
	// core.CompareResults' order, so the worst of them is top[0].
	top := make([]core.Result, 0, min(q.K, len(s.pois)))
	for i, p := range s.pois {
		if i%cancelPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, fmt.Errorf("%w: %v", core.ErrCanceled, err)
			}
		}
		var agg int64
		for _, r := range s.recs[i] {
			if r.Ts >= q.Iq.End {
				break
			}
			if s.semantics == tia.Contained {
				if q.Iq.Contains(r) {
					agg += r.Agg
				}
			} else if q.Iq.Intersects(r) {
				agg += r.Agg
			}
		}
		s0 := geo.Dist(qv, geo.Vector{p.X, p.Y}, 2) / s.maxDist
		s1 := 1.0
		if gmax > 0 {
			s1 = 1 - float64(agg)/gmax
		}
		res := core.Result{
			POI:   p,
			Score: q.Alpha0*s0 + (1-q.Alpha0)*s1,
			S0:    s0,
			S1:    s1,
			Agg:   agg,
		}
		switch {
		case len(top) < q.K:
			top = append(top, res)
			if len(top) == q.K {
				for i := q.K/2 - 1; i >= 0; i-- {
					siftDown(top, i)
				}
			}
		case core.CompareResults(res, top[0]) < 0:
			top[0] = res
			siftDown(top, 0)
		}
	}
	slices.SortFunc(top, core.CompareResults)
	return top, stats, nil
}

// siftDown restores the max-heap order of h below index i.
func siftDown(h []core.Result, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && core.CompareResults(h[r], h[j]) > 0 {
			j = r
		}
		if core.CompareResults(h[j], h[i]) <= 0 {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
