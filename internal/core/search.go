package core

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"tartree/internal/aggcache"
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
	// the buffering experiment of Section 8.4 varies.
	TIAAccesses int64
	TIAPhysical int64
	// Scored counts entry score computations (TIA aggregate lookups before
	// caching).
	Scored int
	// IO attributes the query's page traffic by (component, level): R-tree
	// node reads (always buffer hits — the R-tree is in memory) and TIA
	// page traffic per backend. The scorer threads a query-local
	// pagestore.IOAcct through every TIA probe and moves what it gathered
	// here whenever the search hands control back (Scorer.fold), so the TIA
	// cells reconcile exactly with the traffic this query caused — with no
	// global counter diffing, the accounting stays exact while any number
	// of queries run concurrently. The R-tree cells reconcile with
	// InternalAccesses/LeafAccesses.
	IO pagestore.IOBreakdown
	// CacheHits and CacheMisses count probes of the shared epoch-versioned
	// cache (Options.Cache): a hit answered a TIA aggregate probe — or the
	// whole query — from the cache instead of the backend, a miss fell
	// through. The same probes appear in IO under the agg-cache component
	// (level 0 = aggregate probes, level 1 = whole-result lookups), so the
	// conservation audit extends to cached queries: TIA cells still
	// reconcile exactly with backend traffic, and cache cells account for
	// the reads the cache absorbed. Both stay zero without a cache.
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

// Merge accumulates another query's counters (and I/O breakdown) into s,
// for batch executors that report one aggregate QueryStats.
func (s *QueryStats) Merge(o *QueryStats) {
	s.InternalAccesses += o.InternalAccesses
	s.LeafAccesses += o.LeafAccesses
	s.TIAAccesses += o.TIAAccesses
	s.TIAPhysical += o.TIAPhysical
	s.Scored += o.Scored
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.ResultCacheHit = s.ResultCacheHit || o.ResultCacheHit
	s.IO.Add(&o.IO)
}

// aggKey identifies a cached TIA aggregate.
type aggKey struct {
	idx tia.Index
	iv  tia.Interval
}

// AggCache memoizes TIA aggregates per (index, interval). The collective
// processing scheme of Section 7.2 shares one cache among the queries of a
// batch that have the same query time interval.
type AggCache map[aggKey]int64

// aggCacheProbeTag and resultCacheTag attribute shared-cache lookups in the
// per-query I/O breakdown: level 0 is an aggregate probe, level 1 a
// whole-result lookup.
var (
	aggCacheProbeTag = pagestore.NewIOTag(pagestore.CompAggCache, 0)
	resultCacheTag   = pagestore.NewIOTag(pagestore.CompAggCache, 1)
)

// Scorer computes query-dependent ranking scores of tree entries. A Scorer
// is bound to one query (point, interval, weights) and one stats sink.
type Scorer struct {
	t     *Tree
	q     Query
	qv    geo.Vector // scaled query point
	gmax  float64    // aggregate normalizer (per-query constant)
	stats *QueryStats
	// acct is the query-local I/O accounting context threaded through
	// every TIA probe: the probe and its page reads are counted here, in
	// plain fields only this query touches, and in nothing shared. Its
	// breakdown pointer aims at pend; fold moves both on.
	acct pagestore.IOAcct
	pend pagestore.IOBreakdown
	// cache is the caller's memo shared among the searches of a batch
	// (Section 7.2). Nil for a single query, which scores every entry once
	// and so could never hit it.
	cache AggCache
	// shared is the tree's epoch-versioned cross-query cache, consulted
	// after the caller's memo and before the TIA backend. Nil when the
	// tree has no cache or the search opted out.
	shared *aggcache.Cache
	agg    *obs.Span // the query's span when its aggregates are on, else nil
	// explain, when non-nil, receives the scorer's probe attribution (TIA
	// reads, cache hits/misses) for EXPLAIN/ANALYZE. Nil costs one pointer
	// test per probe.
	explain *Explain
}

// sharedGet probes the cross-query cache for d's aggregate over the query
// interval, recording the probe in the stats (hit/miss counters and the
// agg-cache I/O cell).
func (sc *Scorer) sharedGet(d *aggData) (int64, bool) {
	if sc.shared == nil {
		return 0, false
	}
	v, ok := sc.shared.GetAgg(sc.sharedKey(d))
	sc.explain.recordCacheProbe(ok)
	if sc.stats != nil {
		sc.stats.IO.AddRead(aggCacheProbeTag, ok)
		if ok {
			sc.stats.CacheHits++
		} else {
			sc.stats.CacheMisses++
		}
	}
	return v, ok
}

// sharedKey identifies d's aggregate over the query interval in the
// cross-query cache. It embeds the matching semantics and aggregate function
// so trees with different options can share one cache.
func (sc *Scorer) sharedKey(d *aggData) aggcache.AggKey {
	return aggcache.AggKey{
		TIA:   d.id,
		Start: sc.q.Iq.Start,
		End:   sc.q.Iq.End,
		Sem:   uint8(sc.t.opts.Semantics),
		Func:  uint8(sc.t.opts.AggFunc),
	}
}

// recall answers d's aggregate over the query interval without touching
// the TIA: from the caller's memo when there is one, else from the
// cross-query cache.
func (sc *Scorer) recall(d *aggData) (int64, bool) {
	if sc.cache == nil {
		return sc.sharedGet(d)
	}
	key := aggKey{idx: d.disk, iv: sc.q.Iq}
	v, ok := sc.cache[key]
	if !ok {
		if v, ok = sc.sharedGet(d); ok {
			sc.cache[key] = v
		}
	}
	return v, ok
}

// remember stores a freshly read aggregate in the caller's memo, when there
// is one, and in the cross-query cache (a nil cache ignores it).
func (sc *Scorer) remember(d *aggData, a int64) {
	if sc.cache != nil {
		sc.cache[aggKey{idx: d.disk, iv: sc.q.Iq}] = a
	}
	sc.shared.PutAgg(sc.sharedKey(d), a)
}

// acctPtr returns the scorer's accounting context, or nil when the scorer
// collects no stats (probes then run unowned: the tia and buffer layers
// count them in the shared sinks on the spot).
func (sc *Scorer) acctPtr() *pagestore.IOAcct {
	if sc.stats == nil {
		return nil
	}
	sc.acct.IO = &sc.pend // survives DrainTo; set here for every constructor
	return &sc.acct
}

// fold moves what the acct gathered since the last fold — probes, page
// traffic — into the shared books: the TIA factory's statistics with its
// attached sinks and the probe totals (tia.Factory.FoldAcct), and the
// query's own stats.IO. It runs wherever a probing method hands control
// back to the search's caller — the gmax probe, the root push, Components,
// Expand and Next, on success and on error — so a query never holds
// unfolded traffic while it is parked between rounds, canceled or
// abandoned, and needs no Close.
func (sc *Scorer) fold() {
	if sc.acct.Probes == 0 { // page traffic only comes from probes
		return
	}
	sc.t.opts.TIA.FoldAcct(&sc.acct)
	sc.acct.DrainTo(&sc.stats.IO)
}

// NewScorer prepares a scorer for q, reading the per-query aggregate
// normalizer from the tree's global per-epoch-maximum TIA.
func (t *Tree) NewScorer(q Query, stats *QueryStats, cache AggCache) (*Scorer, error) {
	return t.newScorer(q, stats, cache, nil, t.opts.Cache, nil)
}

func (t *Tree) newScorer(q Query, stats *QueryStats, cache AggCache, agg *obs.Span, shared *aggcache.Cache, ex *Explain) (*Scorer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sc := &Scorer{
		t:       t,
		q:       q,
		qv:      t.scaled(q.X, q.Y),
		stats:   stats,
		cache:   cache,
		shared:  shared,
		agg:     agg,
		explain: ex,
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
	defer sc.fold()
	before := sc.acct.Stats
	a, err := g.disk.AggregateAcct(sc.q.Iq, sc.t.opts.Semantics, sc.t.opts.AggFunc, sc.acctPtr())
	if err != nil {
		return 0, err
	}
	if sc.stats != nil {
		delta := sc.acct.Stats.Sub(before)
		sc.stats.TIAAccesses += delta.LogicalReads
		sc.stats.TIAPhysical += delta.PhysicalReads
		sc.explain.recordProbe(delta.LogicalReads, delta.PhysicalReads)
	}
	sc.remember(g, a)
	return a, nil
}

// Query returns the query the scorer is bound to.
func (sc *Scorer) Query() Query { return sc.q }

// Gmax returns the per-query aggregate normalizer (0 when no check-in falls
// inside the interval anywhere).
func (sc *Scorer) Gmax() float64 { return sc.gmax }

// aggregate reads (and caches) the entry's TIA aggregate over the query
// interval, counting physical TIA page reads.
func (sc *Scorer) aggregate(e rstar.Entry) (int64, error) {
	d := e.Data.(*aggData)
	if v, ok := sc.recall(d); ok {
		return v, nil
	}
	var begin time.Time
	if sc.agg != nil {
		begin = time.Now()
	}
	before := sc.acct.Stats
	a, err := d.disk.AggregateAcct(sc.q.Iq, sc.t.opts.Semantics, sc.t.opts.AggFunc, sc.acctPtr())
	if err != nil {
		return 0, err
	}
	if sc.agg != nil {
		sc.agg.Observe("tia_probe", time.Since(begin))
	}
	if sc.stats != nil {
		delta := sc.acct.Stats.Sub(before)
		sc.stats.TIAAccesses += delta.LogicalReads
		sc.stats.TIAPhysical += delta.PhysicalReads
		sc.stats.Scored++
		sc.explain.recordProbe(delta.LogicalReads, delta.PhysicalReads)
	}
	sc.remember(d, a)
	return a, nil
}

// Components returns the two score components of an entry: the normalized
// spatial distance lower bound s0 and the aggregate term lower bound s1 =
// 1 − g/Gmax. For leaf entries both are exact. Property 1 guarantees
// α0·s0 + α1·s1 never exceeds the score of anything in the subtree.
func (sc *Scorer) Components(e rstar.Entry) (s0, s1 float64, err error) {
	defer sc.fold()
	return sc.components(e)
}

// components is Components without the fold, for the search, which folds
// once for all the entries it scores before handing control back.
func (sc *Scorer) components(e rstar.Entry) (s0, s1 float64, err error) {
	s0 = geo.MinDist(sc.qv, e.Rect, 2) / sc.t.maxDistScaled
	a, err := sc.aggregate(e)
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
func (sc *Scorer) Score(s0, s1 float64) float64 {
	return sc.q.Alpha0*s0 + (1-sc.q.Alpha0)*s1
}

// resultOf builds a Result for a popped leaf entry.
func (sc *Scorer) resultOf(e rstar.Entry, s0, s1 float64) Result {
	st := sc.t.pois[int64(e.Item)]
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

// Elem is one element of the best-first priority queue: an entry with its
// (lower-bound) score and components.
type Elem struct {
	Entry      rstar.Entry
	Score      float64
	S0, S1     float64
	childLevel int // level of the child node; -1 for leaf entries
	// flat is the entry's id in the frozen slabs; meaningful only on the
	// frozen path (Entry.Child stays nil there — the child is addressed
	// through FlatTree.Children[flat] instead of a pointer).
	flat int32
}

// IsPOI reports whether the element is a leaf entry (an actual POI). It
// keys off the recorded child level, which both the pointer and the frozen
// path set, rather than the Child pointer only the former has.
func (el *Elem) IsPOI() bool { return el.childLevel < 0 }

// Node returns the child node of an internal element (nil for POIs). The
// collective scheme uses pointer identity to detect shared front entries.
func (el *Elem) Node() *rstar.Node { return el.Entry.Child }

type elemHeap []*Elem

func (h elemHeap) Len() int           { return len(h) }
func (h elemHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h elemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *elemHeap) Push(x any)        { *h = append(*h, x.(*Elem)) }
func (h *elemHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

// Search is an incremental best-first search over the TAR-tree (Section
// 4.3, after Hjaltason & Samet). Pop returns queue elements in ascending
// score order; the caller decides whether to Expand internal elements,
// which lets the weight-adjustment and skyline algorithms prune subtrees.
//
// CountAccesses can be disabled by batch processors that account for
// shared node accesses themselves.
type Search struct {
	sc    *Scorer
	queue elemHeap
	stats *QueryStats
	// ft, when non-nil, switches the traversal to the tree's frozen flat
	// layout: expansion walks int32 offsets into contiguous slabs instead
	// of chasing node pointers. Scoring, heap order, stats and explain
	// accounting are shared with the pointer path, so the two paths produce
	// identical results and identical counters (pinned by property test).
	ft *rstar.FlatTree
	// slab is the chunk of Elems newElem hands out next. Chunks are never
	// grown in place, so the *Elem the queue, Peek and Pop give out stay
	// valid for the life of the search.
	slab          []Elem
	agg           *obs.Span       // as Scorer.agg
	explain       *Explain        // nil when EXPLAIN is off
	ctx           context.Context // nil = never canceled
	CountAccesses bool
}

// SearchOptions tunes NewSearchWith.
type SearchOptions struct {
	Stats *QueryStats
	Cache AggCache
	// Gmax supplies a precomputed aggregate normalizer; nil computes it
	// with a branch-and-bound descent. The collective scheme computes it
	// once per query-interval group.
	Gmax *float64
	// SkipAccessCounting suppresses node-access counting in Expand and on
	// the root read; batch processors that share node accesses across
	// queries account for them externally.
	SkipAccessCounting bool
	// NoCache bypasses the tree's shared epoch-versioned cache
	// (Options.Cache) for this search: no lookups, no stores.
	NoCache bool
	// Explain, when non-nil, records the search forensics (pops, node
	// accesses by level, heap high-water mark, probe attribution) into the
	// recorder. A nil recorder costs one pointer test per site.
	Explain *Explain
	// Ctx, when non-nil, is polled on every best-first pop; once canceled
	// or past its deadline, Next returns an error wrapping ErrCanceled and
	// the stats collected so far remain valid partial counts.
	Ctx context.Context
	// AllowFrozen lets the search traverse the tree's frozen flat layout
	// when one is installed (Tree.Freeze); without one it silently runs the
	// pointer path. Callers that rely on child-node pointer identity (the
	// collective scheme compares Elem.Node across searches) leave it unset.
	AllowFrozen bool
}

// NewSearch starts a best-first search for q. Reading the root node counts
// as one internal node access.
func (t *Tree) NewSearch(q Query, stats *QueryStats, cache AggCache) (*Search, error) {
	return t.NewSearchWith(q, SearchOptions{Stats: stats, Cache: cache})
}

// NewSearchWith starts a best-first search with explicit options.
func (t *Tree) NewSearchWith(q Query, o SearchOptions) (*Search, error) {
	return t.newSearch(q, nil, o)
}

// newSearch is NewSearchWith under QueryCtx: a non-nil agg is a span with
// aggregates on, and the search times its hot sites into it.
func (t *Tree) newSearch(q Query, agg *obs.Span, o SearchOptions) (*Search, error) {
	shared := t.opts.Cache
	if o.NoCache {
		shared = nil
	}
	var sc *Scorer
	var err error
	if o.Gmax != nil {
		sc, err = t.newScorerWithGmax(q, *o.Gmax, o.Stats, o.Cache, shared)
		if sc != nil {
			sc.agg = agg
			sc.explain = o.Explain
		}
	} else {
		sc, err = t.newScorer(q, o.Stats, o.Cache, agg, shared, o.Explain)
	}
	if err != nil {
		return nil, err
	}
	s := &Search{sc: sc, stats: o.Stats, agg: agg, explain: o.Explain, ctx: o.Ctx, CountAccesses: !o.SkipAccessCounting}
	if o.AllowFrozen {
		s.ft = t.frozen
	}
	if err := s.pushRoot(); err != nil {
		return nil, err
	}
	return s, nil
}

// pushRoot reads the root node and scores its entries.
func (s *Search) pushRoot() error {
	defer s.sc.fold()
	if s.ft != nil {
		root := s.ft.Root()
		s.countNodeAccess(int(root.Level))
		for i := int32(0); i < root.Count; i++ {
			if err := s.pushFlat(root.Start + i); err != nil {
				return err
			}
		}
		return nil
	}
	root := s.sc.t.rt.Root()
	s.countNodeAccess(root.Level)
	for _, e := range root.Entries {
		if err := s.push(e); err != nil {
			return err
		}
	}
	return nil
}

// countNodeAccess records one R-tree node read at the given level into the
// query stats (unless access counting is off) and the explain recorder. The
// root read and every Expand — pointer or frozen — go through here, so both
// traversal paths account identically.
func (s *Search) countNodeAccess(level int) {
	if s.CountAccesses && s.stats != nil {
		if level == 0 {
			s.stats.LeafAccesses++
			s.stats.IO.AddRead(pagestore.NewIOTag(pagestore.CompRTreeLeaf, 0), true)
		} else {
			s.stats.InternalAccesses++
			s.stats.IO.AddRead(pagestore.NewIOTag(pagestore.CompRTreeInternal, level), true)
		}
	}
	s.explain.recordNodeAccess(level)
}

// newScorerWithGmax builds a scorer using a precomputed normalizer.
func (t *Tree) newScorerWithGmax(q Query, gmax float64, stats *QueryStats, cache AggCache, shared *aggcache.Cache) (*Scorer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Scorer{t: t, q: q, qv: t.scaled(q.X, q.Y), gmax: gmax, stats: stats, cache: cache, shared: shared}, nil
}

// MaxAggregate reads the normalization range for iv (the sum of the global
// per-epoch maxima over the interval), counting its accesses into stats.
// The collective scheme calls it once per query-interval group.
func (t *Tree) MaxAggregate(iv tia.Interval, stats *QueryStats, cache AggCache) (int64, error) {
	sc := &Scorer{
		t: t,
		// Only Iq matters for aggregation; other fields are placeholders.
		q:      Query{Iq: iv, K: 1, Alpha0: 0.5},
		stats:  stats,
		cache:  cache,
		shared: t.opts.Cache,
	}
	return sc.maxAggregate()
}

// Scorer returns the search's scorer.
func (s *Search) Scorer() *Scorer { return s.sc }

// elemSlab is how many Elems one slab chunk holds: a search scores a few
// hundred entries, so it allocates a handful of chunks instead of one
// object per entry.
const elemSlab = 64

// newElem returns a zeroed Elem from the search's slab.
func (s *Search) newElem() *Elem {
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]Elem, 0, elemSlab)
	}
	s.slab = s.slab[:len(s.slab)+1]
	return &s.slab[len(s.slab)-1]
}

func (s *Search) push(e rstar.Entry) error {
	s0, s1, err := s.sc.components(e)
	if err != nil {
		return err
	}
	el := s.newElem()
	*el = Elem{Entry: e, S0: s0, S1: s1, Score: s.sc.Score(s0, s1), childLevel: -1}
	if e.Child != nil {
		el.childLevel = e.Child.Level
	}
	heap.Push(&s.queue, el)
	s.explain.recordPush(len(s.queue))
	return nil
}

// pushFlat scores and enqueues entry eid of the frozen slabs. The
// materialized Entry carries the exact same rectangle and aggregate handle
// the pointer tree holds, so components, score and heap order are
// bit-identical to the pointer path.
func (s *Search) pushFlat(eid int32) error {
	e := s.ft.EntryAt(eid)
	s0, s1, err := s.sc.components(e)
	if err != nil {
		return err
	}
	el := s.newElem()
	*el = Elem{Entry: e, S0: s0, S1: s1, Score: s.sc.Score(s0, s1), childLevel: -1, flat: eid}
	if cid := s.ft.Children[eid]; cid >= 0 {
		el.childLevel = int(s.ft.Nodes[cid].Level)
	}
	heap.Push(&s.queue, el)
	s.explain.recordPush(len(s.queue))
	return nil
}

// Peek returns the least-score element without removing it, or nil when
// the queue is empty.
func (s *Search) Peek() *Elem {
	if len(s.queue) == 0 {
		return nil
	}
	return s.queue[0]
}

// Pop removes and returns the least-score element, or nil when exhausted.
func (s *Search) Pop() *Elem {
	if len(s.queue) == 0 {
		return nil
	}
	if s.agg != nil {
		defer s.agg.Timed("queue_pop")()
	}
	el := heap.Pop(&s.queue).(*Elem)
	s.explain.recordPop(el, len(s.queue))
	return el
}

// Expand pushes the children of an internal element, counting one node
// access (when CountAccesses is set). The "expand" aggregate covers the
// R-tree descent including the scoring of the child entries, so the nested
// "tia_probe" time is a subset of it. On a frozen search the element's
// child node is resolved through the flat slabs instead of a pointer.
func (s *Search) Expand(el *Elem) error {
	defer s.sc.fold()
	return s.expand(el)
}

// expand is Expand without the fold, for Next, which folds once for all
// the expansions it makes before it returns.
func (s *Search) expand(el *Elem) error {
	if s.ft != nil {
		return s.expandFlat(el)
	}
	n := el.Entry.Child
	if n == nil {
		return nil
	}
	if s.agg != nil {
		defer s.agg.Timed("expand")()
	}
	s.countNodeAccess(n.Level)
	for _, e := range n.Entries {
		if err := s.push(e); err != nil {
			return err
		}
	}
	return nil
}

// expandFlat is Expand on the frozen layout: the child node is a (level,
// start, count) triple and its entries are a contiguous run of the slabs —
// no pointer chase, no per-node slice header.
func (s *Search) expandFlat(el *Elem) error {
	if el.childLevel < 0 {
		return nil
	}
	if s.agg != nil {
		defer s.agg.Timed("expand")()
	}
	n := s.ft.Nodes[s.ft.Children[el.flat]]
	s.countNodeAccess(int(n.Level))
	for i := int32(0); i < n.Count; i++ {
		if err := s.pushFlat(n.Start + i); err != nil {
			return err
		}
	}
	return nil
}

// Next runs the search until the next POI emerges, returning nil when the
// tree is exhausted.
func (s *Search) Next() (*Result, error) {
	defer s.sc.fold()
	for {
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
			}
		}
		el := s.Pop()
		if el == nil {
			return nil, nil
		}
		if el.IsPOI() {
			r := s.sc.resultOf(el.Entry, el.S0, el.S1)
			return &r, nil
		}
		if err := s.expand(el); err != nil {
			return nil, err
		}
	}
}

// Result converts a POI element into a Result.
func (s *Search) Result(el *Elem) Result {
	return s.sc.resultOf(el.Entry, el.S0, el.S1)
}

// IOLines converts a breakdown into the neutral rows obs stores (obs is
// dependency-free, so it cannot see pagestore types). Exported so servers
// can render a query's attribution without depending on the array layout.
func IOLines(b *pagestore.IOBreakdown) []obs.IOLine {
	var out []obs.IOLine
	b.Each(func(c pagestore.Component, level int, cell pagestore.IOCell) {
		out = append(out, obs.IOLine{
			Component: c.String(),
			Level:     level,
			Hits:      cell.Hits,
			Misses:    cell.Misses,
			Evictions: cell.Evictions,
		})
	})
	return out
}

// ScorePOI computes the exact ranking score of one POI for q (from the
// in-memory mirror; no disk accesses). Tests and the sequential-scan
// baseline use it.
func (t *Tree) ScorePOI(q Query, id int64) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	st, ok := t.pois[id]
	if !ok {
		return Result{}, errUnknownPOI(id)
	}
	gmax, err := t.gmaxMirror(q.Iq)
	if err != nil {
		return Result{}, err
	}
	return t.scorePOIWith(q, st, gmax)
}

func (t *Tree) scorePOIWith(q Query, st *poiState, gmax float64) (Result, error) {
	agg, err := st.data.mirror.AggregateFunc(q.Iq, t.opts.Semantics, t.opts.AggFunc)
	if err != nil {
		return Result{}, err
	}
	qv := t.scaled(q.X, q.Y)
	s0 := geo.Dist(qv, st.loc, 2) / t.maxDistScaled
	s1 := 1.0
	if gmax > 0 {
		s1 = 1 - float64(agg)/gmax
	}
	return Result{
		POI:   st.poi,
		Score: q.Alpha0*s0 + (1-q.Alpha0)*s1,
		S0:    s0,
		S1:    s1,
		Agg:   agg,
	}, nil
}

// gmaxMirror computes the per-query aggregate normalizer from the global
// TIA's in-memory mirror (no disk accesses). It equals the Scorer's Gmax.
func (t *Tree) gmaxMirror(iv tia.Interval) (float64, error) {
	a, err := t.global.mirror.AggregateFunc(iv, t.opts.Semantics, t.opts.AggFunc)
	return float64(a), err
}

type errUnknownPOI int64

func (e errUnknownPOI) Error() string { return "core: unknown POI" }
