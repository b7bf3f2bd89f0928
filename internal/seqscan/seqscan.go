// Package seqscan implements the straightforward approach of Section 3.2:
// answer a kNNTA query by adding up the per-epoch aggregates of every POI
// over the query interval, computing every ranking score, and keeping the
// top k. Its complexity is O(m'N + N log m + k log N); the paper uses it as
// the baseline every index variant is compared against.
package seqscan

import (
	"container/heap"
	"context"
	"fmt"
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
	global    *tia.Mem       // per-epoch maxima (the normalization range)
}

// New creates an empty scanner over the given world rectangle.
func New(world geo.Rect, semantics tia.Semantics) *Scanner {
	return &Scanner{
		world:     world,
		maxDist:   world.Diagonal(2),
		semantics: semantics,
		global:    tia.NewMem(),
	}
}

// Add registers a POI with its epoch aggregates (ascending, non-zero).
func (s *Scanner) Add(p core.POI, history []tia.Record) {
	s.pois = append(s.pois, p)
	recs := append([]tia.Record(nil), history...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Ts < recs[j].Ts })
	s.recs = append(s.recs, recs)
	for _, r := range recs {
		if cur, err := s.global.Aggregate(tia.Interval{Start: r.Ts, End: r.Ts + 1}, tia.Intersecting); err == nil && r.Agg > cur {
			s.global.Put(r) //nolint:errcheck // Mem.Put cannot fail
		}
	}
}

// Len returns the number of POIs.
func (s *Scanner) Len() int { return len(s.pois) }

type scored struct {
	res core.Result
}

// maxHeap keeps the k smallest scores by evicting the largest.
type maxHeap []scored

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i].res.Score > h[j].res.Score }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *maxHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

// Query scans every POI and returns the top-k results in ascending score
// order.
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
	gmaxI, err := s.global.Aggregate(q.Iq, s.semantics)
	if err != nil {
		return nil, stats, err
	}
	gmax := float64(gmaxI)
	qv := geo.Vector{q.X, q.Y}
	h := &maxHeap{}
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
		if h.Len() < q.K {
			heap.Push(h, scored{res})
		} else if res.Score < (*h)[0].res.Score {
			(*h)[0] = scored{res}
			heap.Fix(h, 0)
		}
	}
	out := make([]core.Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(scored).res
	}
	return out, stats, nil
}
