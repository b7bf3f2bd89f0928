package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/pagestore"
	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// QueryStats counts the work done by a query (or a batch of queries). Node
// accesses are the paper's primary, machine-independent cost metric.
type QueryStats struct {
	// InternalAccesses and LeafAccesses count R-tree node reads.
	InternalAccesses int
	LeafAccesses     int
	// TIAAccesses counts logical TIA page reads (buffer hits included);
	// TIAPhysical counts the reads that reached the disk, which is what
	// the buffering experiment of Section 8.4 varies. A probe of an
	// in-memory TIA (the default factory) reads no page and counts none.
	//
	// They are the difference of two readings of the factory's ledger, taken
	// around each step of the search (Scorer.settle): exact while the query
	// is the only one reading the factory's pages, as it is in the
	// experiments, which run each query alone.
	TIAAccesses int64
	TIAPhysical int64
	// Scored counts entry score computations: one TIA aggregate probe each,
	// whatever the backend.
	Scored int
	// CacheHits and CacheMisses count lookups of the shared epoch-versioned
	// result cache (Options.Cache): a hit answered the whole query, a miss
	// fell through to the search. Both stay zero without a cache.
	CacheHits, CacheMisses int64
	// ResultCacheHit reports that the entire ranked result was served from
	// the cache: no tree traversal, no TIA probes.
	ResultCacheHit bool
}

// NodeAccesses returns R-tree plus logical TIA accesses, the total the
// experiment figures report.
func (s QueryStats) NodeAccesses() int64 {
	return int64(s.InternalAccesses+s.LeafAccesses) + s.TIAAccesses
}

// RTreeAccesses returns only the R-tree node accesses.
func (s QueryStats) RTreeAccesses() int { return s.InternalAccesses + s.LeafAccesses }

// Merge accumulates another query's counters into s, for batch executors
// that report one aggregate QueryStats.
func (s *QueryStats) Merge(o *QueryStats) {
	s.InternalAccesses += o.InternalAccesses
	s.LeafAccesses += o.LeafAccesses
	s.TIAAccesses += o.TIAAccesses
	s.TIAPhysical += o.TIAPhysical
	s.Scored += o.Scored
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.ResultCacheHit = s.ResultCacheHit || o.ResultCacheHit
}

// aggKey identifies a cached TIA aggregate.
type aggKey struct {
	idx *tia.Index
	iv  tia.Interval
}

// AggCache memoizes TIA aggregates per (index, interval). The collective
// processing scheme of Section 7.2 shares one cache among the queries of a
// batch that have the same query time interval.
type AggCache map[aggKey]int64

// Scorer computes query-dependent ranking scores of tree entries. A Scorer
// is bound to one query (point, interval, weights) and one stats sink.
type Scorer struct {
	t     *Tree
	q     Query
	qv    geo.Vector // scaled query point
	gmax  float64    // aggregate normalizer (per-query constant)
	stats *QueryStats
	// probes counts the TIA probes since the last settle, in a plain field
	// only this query touches: a probe writes nothing shared.
	probes int64
	// cache is the caller's memo shared among the searches of a batch
	// (Section 7.2). Nil for a single query, which scores every entry once
	// and so could never hit it.
	cache AggCache
	agg   *obs.Span // the query's span when its aggregates are on, else nil
	// explain, when non-nil, receives the scorer's TIA read attribution for
	// EXPLAIN/ANALYZE. Nil costs one pointer test per probe.
	explain *Explain
	// c0 and c1, when the search's layout has columns (useCols), are the
	// columns e0 and e1 that bound the epochs [e0, e1) matching the query
	// interval: a probe of entry eid is c1[eid] − c0[eid]. Nil folds the
	// entry's records.
	c0, c1 []int32
}

// recall answers d's aggregate over the query interval from the caller's
// memo, without touching the TIA.
func (sc *Scorer) recall(d *tia.Index) (int64, bool) {
	if sc.cache == nil {
		return 0, false
	}
	v, ok := sc.cache[aggKey{idx: d, iv: sc.q.Iq}]
	return v, ok
}

// remember stores a freshly read aggregate in the caller's memo, when there
// is one.
func (sc *Scorer) remember(d *tia.Index, a int64) {
	if sc.cache != nil {
		sc.cache[aggKey{idx: d, iv: sc.q.Iq}] = a
	}
}

// pageReads reads the TIA factory's ledger, for settle to diff.
func (sc *Scorer) pageReads() pagestore.Stats { return sc.t.opts.TIA.Ledger().Stats() }

// settle closes one step of the search: it adds the probes made since the
// last settle to the process-wide totals (tia.AddProbes), and the pages
// the factory read since before — its ledger when the step began — to the
// query's TIAAccesses and TIAPhysical. It runs wherever a probing method
// hands control back to the search's caller — the gmax probe, the root
// push, Expand and Next, on success and on error — so a query never holds
// uncounted probes while it is parked between rounds, canceled or
// abandoned, and needs no Close.
func (sc *Scorer) settle(before pagestore.Stats) {
	if sc.probes == 0 { // pages are only read by probes
		return
	}
	tia.AddProbes(sc.t.global.Kind(), sc.probes)
	sc.probes = 0
	if sc.stats != nil {
		d := sc.pageReads().Sub(before)
		sc.stats.TIAAccesses += d.LogicalReads
		sc.stats.TIAPhysical += d.PhysicalReads
	}
}

// newScorer binds a scorer to q. The aggregate normalizer is o.Gmax when
// the caller supplies one, else it is read from the tree's global
// per-epoch-maximum TIA (one counted probe).
func (t *Tree) newScorer(q Query, agg *obs.Span, o SearchOptions) (*Scorer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sc := &Scorer{
		t:       t,
		q:       q,
		qv:      t.scaled(q.X, q.Y),
		stats:   o.Stats,
		cache:   o.Cache,
		agg:     agg,
		explain: o.Explain,
	}
	if o.Gmax != nil {
		sc.gmax = *o.Gmax
		return sc, nil
	}
	gmax, err := sc.maxAggregate()
	if err != nil {
		return nil, err
	}
	sc.gmax = float64(gmax)
	return sc, nil
}

// maxAggregate reads the normalization range of g(p, Iq) from the tree's
// global per-epoch-maximum TIA: the sum of the global epoch maxima over the
// interval, an upper bound on every POI's aggregate that is independent of
// the grouping strategy (so all index variants rank identically). The read
// counts toward the query's TIA accesses.
func (sc *Scorer) maxAggregate() (int64, error) {
	g := sc.t.global
	if v, ok := sc.recall(g); ok {
		return v, nil
	}
	if sc.agg != nil {
		defer sc.agg.Timed("gmax")()
	}
	defer sc.settle(sc.pageReads())
	sc.probes++
	a, err := g.Aggregate(sc.q.Iq, sc.t.opts.Semantics, sc.t.opts.AggFunc)
	if err != nil {
		return 0, err
	}
	sc.remember(g, a)
	return a, nil
}

// useCols answers the scorer's probes from c, when c is not nil, mapping
// the query interval to its column range once.
func (sc *Scorer) useCols(c *columns) {
	if c == nil {
		return
	}
	e0, e1 := c.span(sc.q.Iq, sc.t.opts.Semantics, sc.t.opts.Epochs)
	sc.c0, sc.c1 = c.col(e0), c.col(e1)
}

// Query returns the query the scorer is bound to.
func (sc *Scorer) Query() Query { return sc.q }

// Gmax returns the per-query aggregate normalizer (0 when no check-in falls
// inside the interval anywhere).
func (sc *Scorer) Gmax() float64 { return sc.gmax }

// aggregate reads the aggregate over the query interval of entry eid, whose
// TIA is d: through the caller's memo, when there is one, then from the
// columns, when the layout has them, else from d.
func (sc *Scorer) aggregate(eid int32, d *tia.Index) (int64, error) {
	if v, ok := sc.recall(d); ok {
		return v, nil
	}
	var begin time.Time
	if sc.agg != nil {
		begin = time.Now()
	}
	sc.probes++
	var a int64
	if sc.c1 != nil {
		a = int64(sc.c1[eid]) - int64(sc.c0[eid])
	} else {
		var err error
		if a, err = d.Aggregate(sc.q.Iq, sc.t.opts.Semantics, sc.t.opts.AggFunc); err != nil {
			return 0, err
		}
	}
	if sc.agg != nil {
		sc.agg.Observe("tia_probe", time.Since(begin))
	}
	if sc.stats != nil {
		sc.stats.Scored++
	}
	sc.remember(d, a)
	return a, nil
}

// components returns the two score components of entry eid, with bounding
// rectangle rect and TIA d: the normalized spatial distance lower
// bound s0 and the aggregate term lower bound s1 = 1 − g/Gmax. For leaf
// entries both are exact. Property 1 guarantees α0·s0 + α1·s1 never exceeds
// the score of anything in the subtree. It does not settle: the search
// settles once for all the entries it scores before handing control back.
func (sc *Scorer) components(rect geo.Rect, eid int32, d *tia.Index) (s0, s1 float64, err error) {
	s0 = geo.MinDist(sc.qv, rect, 2) / sc.t.maxDistScaled
	a, err := sc.aggregate(eid, d)
	if err != nil {
		return 0, 0, err
	}
	if sc.gmax > 0 {
		s1 = 1 - float64(a)/sc.gmax
	} else {
		s1 = 1
	}
	return s0, s1, nil
}

// Score combines the components with the query weights.
func (sc *Scorer) Score(s0, s1 float64) float64 { return score(sc.q.Alpha0, s0, s1) }

// score is f = α0·s0 + α1·s1. A result-cache hit rebuilds its scores with
// it too, so they are bit-identical to the search's.
func score(alpha0, s0, s1 float64) float64 { return alpha0*s0 + (1-alpha0)*s1 }

// resultOf builds the Result of POI id from its exact components.
func (sc *Scorer) resultOf(id int64, s0, s1 float64) Result {
	st := sc.t.pois[id]
	var agg int64
	if sc.gmax > 0 {
		agg = int64((1-s1)*sc.gmax + 0.5)
	}
	return Result{
		POI:   st.poi,
		Score: sc.Score(s0, s1),
		S0:    s0,
		S1:    s1,
		Agg:   agg,
	}
}

// Elem is one element of the best-first priority queue: an entry of the
// flat layout with its (lower-bound) score and components. It is a plain
// 32-byte value; the queue holds Elems, not pointers to them.
type Elem struct {
	Score  float64
	S0, S1 float64
	entry  int32 // entry id in the flat slabs
	child  int32 // child node id; -1 for a leaf entry
}

// IsPOI reports whether the element is a leaf entry (an actual POI).
func (el Elem) IsPOI() bool { return el.child < 0 }

// Node returns the id of the element's child node in the flat layout (-1
// for POIs). The collective scheme compares ids to detect front entries
// shared among searches over the same layout.
func (el Elem) Node() int32 { return el.child }

// Search is an incremental best-first search over the TAR-tree (Section
// 4.3, after Hjaltason & Samet). It reads the tree's compiled flat layout:
// nodes are (level, start, count) triples, an entry is an int32 id into
// contiguous slabs. Pop returns queue elements in ascending score order,
// POIs of equal score by id (less); the caller decides whether to Expand
// internal elements, which lets the weight-adjustment and skyline
// algorithms prune subtrees.
type Search struct {
	sc *Scorer
	ft *rstar.FlatTree
	// queue is a binary min-heap in less's order, kept by siftUp and
	// siftDown.
	queue         []Elem
	stats         *QueryStats
	agg           *obs.Span       // as Scorer.agg
	explain       *Explain        // nil when EXPLAIN is off
	ctx           context.Context // nil = never canceled
	countAccesses bool
}

// SearchOptions tunes NewSearchWith.
type SearchOptions struct {
	Stats *QueryStats
	// Cache is the caller's aggregate memo, shared among the searches of a
	// batch with the same query interval. Nil for a single search.
	Cache AggCache
	// Gmax supplies a precomputed aggregate normalizer; nil reads it from
	// the global TIA. The collective scheme computes it once per
	// query-interval group.
	Gmax *float64
	// SkipAccessCounting suppresses node-access counting in Expand and on
	// the root read; batch processors that share node accesses across
	// queries account for them externally.
	SkipAccessCounting bool
	// Explain, when non-nil, records the search forensics (pops, node
	// accesses by level, heap high-water mark, probe attribution) into the
	// recorder. A nil recorder costs one pointer test per site.
	Explain *Explain
	// Ctx, when non-nil, is polled on every best-first pop; once canceled
	// or past its deadline, Next returns an error wrapping ErrCanceled and
	// the stats collected so far remain valid partial counts.
	Ctx context.Context
}

// NewSearch starts a best-first search for q. Reading the root node counts
// as one internal node access.
func (t *Tree) NewSearch(q Query, stats *QueryStats, cache AggCache) (*Search, error) {
	return t.NewSearchWith(q, SearchOptions{Stats: stats, Cache: cache})
}

// NewSearchWith starts a best-first search with explicit options.
func (t *Tree) NewSearchWith(q Query, o SearchOptions) (*Search, error) {
	return t.newSearch(q, nil, o, nil)
}

// newSearch is NewSearchWith under searchTopK: a non-nil agg is a span with
// aggregates on, and the search times its hot sites into it; a non-nil
// queue is a pooled one (getQueue) the search grows instead of allocating.
func (t *Tree) newSearch(q Query, agg *obs.Span, o SearchOptions, queue *[]Elem) (*Search, error) {
	sc, err := t.newScorer(q, agg, o)
	if err != nil {
		return nil, err
	}
	l := t.compiled()
	sc.useCols(l.cols)
	s := &Search{sc: sc, ft: l.ft, stats: o.Stats, agg: agg, explain: o.Explain, ctx: o.Ctx, countAccesses: !o.SkipAccessCounting}
	if queue != nil {
		s.queue = (*queue)[:0]
	}
	if err := s.pushRoot(); err != nil {
		return nil, err
	}
	return s, nil
}

// SearchTopK runs q's best-first search to its top k on a pooled queue:
// what NewSearchWith(q, o) followed by TopK(q.K) returns, without the
// queue's allocation.
func (t *Tree) SearchTopK(q Query, o SearchOptions) ([]Result, error) {
	return t.searchTopK(q, nil, o)
}

// searchTopK is SearchTopK timing its hot sites into agg (see newSearch).
func (t *Tree) searchTopK(q Query, agg *obs.Span, o SearchOptions) ([]Result, error) {
	queue := getQueue()
	s, err := t.newSearch(q, agg, o, queue)
	if err != nil {
		return nil, err
	}
	// Deferred so a canceled search still snapshots what the bound had
	// pruned up to the abort: explain of a canceled query reports the
	// partial frontier rather than nothing. The queue goes back to the
	// pool after that, once nothing reads it.
	defer s.putQueue(queue)
	defer o.Explain.captureFrontier(s)
	return s.TopK(q.K)
}

// queues pools the best-first queues of SearchTopK's searches (*[]Elem). A
// query's queue grows to a few hundred entries; reusing it is most of what
// a search would otherwise allocate. Searches handed to callers (NewSearch,
// NewSearchWith) keep their own.
var queues = sync.Pool{New: func() any { return new([]Elem) }}

// getQueue takes a queue from the pool, for searchTopK.
func getQueue() *[]Elem { return queues.Get().(*[]Elem) }

// putQueue returns s's queue to the pool through p, the pointer getQueue
// gave: the search must not be used afterwards.
func (s *Search) putQueue(p *[]Elem) {
	*p = s.queue[:0]
	s.queue = nil
	queues.Put(p)
}

// pushRoot reads the root node (node 0) and scores its entries.
func (s *Search) pushRoot() error {
	defer s.sc.settle(s.sc.pageReads())
	return s.pushNode(0)
}

// pushNode reads node id — one counted access — and scores and enqueues
// its entries, a contiguous run of the slabs.
func (s *Search) pushNode(id int32) error {
	n := s.ft.Nodes[id]
	s.countNodeAccess(int(n.Level))
	for eid := n.Start; eid < n.Start+n.Count; eid++ {
		if err := s.push(eid); err != nil {
			return err
		}
	}
	return nil
}

// countNodeAccess records one R-tree node read at the given level into the
// query stats (unless access counting is off) and the explain recorder.
func (s *Search) countNodeAccess(level int) {
	if s.countAccesses && s.stats != nil {
		if level == 0 {
			s.stats.LeafAccesses++
		} else {
			s.stats.InternalAccesses++
		}
	}
	s.explain.recordNodeAccess(level)
}

// MaxAggregate reads the normalization range for iv (the sum of the global
// per-epoch maxima over the interval), counting its accesses into stats.
// The collective scheme calls it once per query-interval group.
func (t *Tree) MaxAggregate(iv tia.Interval, stats *QueryStats, cache AggCache) (int64, error) {
	// Only Iq matters for aggregation; the other fields are placeholders.
	sc, err := t.newScorer(Query{Iq: iv, K: 1, Alpha0: 0.5}, nil, SearchOptions{Stats: stats, Cache: cache})
	if err != nil {
		return 0, err
	}
	return int64(sc.gmax), nil
}

// Scorer returns the search's scorer.
func (s *Search) Scorer() *Scorer { return s.sc }

// push scores entry eid of the flat slabs — rectangle and aggregate handle
// read in place — and inserts it into the queue.
func (s *Search) push(eid int32) error {
	s0, s1, err := s.sc.components(s.ft.Rects[eid], eid, tiaOf(s.ft.Data[eid]))
	if err != nil {
		return err
	}
	s.queue = append(s.queue, Elem{Score: s.sc.Score(s0, s1), S0: s0, S1: s1, entry: eid, child: s.ft.Children[eid]})
	s.siftUp(len(s.queue) - 1)
	s.explain.recordPush(len(s.queue))
	return nil
}

// less orders the queue: by score, and at an equal score an internal entry
// before a POI and POIs by id. Internal entries of equal score stay
// unordered among themselves. Every POI of a score is in the queue before
// the first of them pops — any POI still unpushed lies below an internal
// entry of no greater bound, which pops first — so POIs leave the queue in
// CompareResults' order whatever the heap's shape, and node accesses depend
// only on the bounds. The tie path looks the POI ids up, so Elem stays 32
// bytes.
func (s *Search) less(a, b *Elem) bool {
	if a.Score < b.Score {
		return true
	}
	if a.Score != b.Score || b.child >= 0 {
		return false
	}
	return a.child >= 0 || s.ft.Items[a.entry] < s.ft.Items[b.entry]
}

// siftUp and siftDown keep the queue a binary min-heap in less's order.
func (s *Search) siftUp(j int) {
	q := s.queue
	el := q[j]
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !s.less(&el, &q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = el
}

// siftDown places el, starting from the root, in the heap q[:n].
func (s *Search) siftDown(el Elem, n int) {
	q := s.queue
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(&q[r], &q[j]) {
			j = r
		}
		if !s.less(&q[j], &el) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = el
}

// Peek returns the least-score element without removing it; ok is false
// when the queue is empty.
func (s *Search) Peek() (el Elem, ok bool) {
	if len(s.queue) == 0 {
		return Elem{}, false
	}
	return s.queue[0], true
}

// Pop removes and returns the least-score element; ok is false when the
// search is exhausted.
func (s *Search) Pop() (el Elem, ok bool) {
	n := len(s.queue) - 1
	if n < 0 {
		return Elem{}, false
	}
	if s.agg != nil {
		defer s.agg.Timed("queue_pop")()
	}
	el = s.queue[0]
	last := s.queue[n]
	s.queue = s.queue[:n]
	if n > 0 {
		s.siftDown(last, n)
	}
	s.explain.recordPop(s, el)
	return el, true
}

// Expand pushes the children of an internal element, counting one node
// access (unless access counting is off). The "expand" aggregate covers the
// R-tree descent including the scoring of the child entries, so the nested
// "tia_probe" time is a subset of it.
func (s *Search) Expand(el Elem) error {
	defer s.sc.settle(s.sc.pageReads())
	return s.expand(el)
}

// expand is Expand without the settle, for Next, which settles once for
// all the expansions it makes before it returns.
func (s *Search) expand(el Elem) error {
	if el.child < 0 {
		return nil
	}
	if s.agg != nil {
		defer s.agg.Timed("expand")()
	}
	return s.pushNode(el.child)
}

// Next runs the search until the next POI emerges, returning nil when the
// tree is exhausted.
func (s *Search) Next() (*Result, error) {
	r, ok, err := s.next()
	if !ok || err != nil {
		return nil, err
	}
	return &r, nil
}

// next is Next returning the result by value; ok is false when the tree is
// exhausted.
func (s *Search) next() (r Result, ok bool, err error) {
	defer s.sc.settle(s.sc.pageReads())
	for {
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return Result{}, false, fmt.Errorf("%w: %v", ErrCanceled, err)
			}
		}
		el, ok := s.Pop()
		if !ok {
			return Result{}, false, nil
		}
		if el.IsPOI() {
			return s.Result(el), true, nil
		}
		if err := s.expand(el); err != nil {
			return Result{}, false, err
		}
	}
}

// TopK runs the search until its first k POIs have emerged — all of them,
// when the tree holds fewer — and returns them in CompareResults' order.
func (s *Search) TopK(k int) ([]Result, error) {
	results := make([]Result, 0, min(k, s.sc.t.Len()))
	for len(results) < k {
		r, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		results = append(results, r)
		s.explain.recordResult(len(results), r.Score)
	}
	return results, nil
}

// Result converts a POI element into a Result.
func (s *Search) Result(el Elem) Result {
	return s.sc.resultOf(s.ft.Items[el.entry], el.S0, el.S1)
}

// level returns the level of el's child node, -1 for a POI.
func (s *Search) level(el Elem) int {
	if el.child < 0 {
		return -1
	}
	return int(s.ft.Nodes[el.child].Level)
}

// ScorePOI computes the exact ranking score of one POI for q, folded from
// its records (History: no page access, and no column probe) and the
// global TIA's. Tests and the sequential-scan baseline use it.
func (t *Tree) ScorePOI(q Query, id int64) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	st, ok := t.pois[id]
	if !ok {
		return Result{}, fmt.Errorf("core: unknown POI %d", id)
	}
	recs, err := t.records(id)
	if err != nil {
		return Result{}, err
	}
	fold := func(recs []tia.Record) int64 {
		return tia.AggregateRecords(recs, q.Iq, t.opts.Semantics, t.opts.AggFunc)
	}
	gmax := float64(fold(t.global.Records())) // equals the Scorer's Gmax
	agg := fold(recs)
	qv := t.scaled(q.X, q.Y)
	s0 := geo.Dist(qv, st.loc, 2) / t.maxDistScaled
	s1 := 1.0
	if gmax > 0 {
		s1 = 1 - float64(agg)/gmax
	}
	return Result{
		POI:   st.poi,
		Score: score(q.Alpha0, s0, s1),
		S0:    s0,
		S1:    s1,
		Agg:   agg,
	}, nil
}
