package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/obs"
)

// ErrInvalid is wrapped by every query-validation failure, and by InsertPOI
// refusing a record off the tree's epoch grid; errors.Is lets callers (HTTP
// handlers, CLIs) map bad input to a client error without matching strings.
var ErrInvalid = errors.New("core: invalid query")

// ErrCanceled is wrapped by searches aborted by their context, whether
// canceled or past the deadline. The stats returned alongside it are valid
// partial counts of the work done up to the abort.
var ErrCanceled = errors.New("core: query canceled")

// QueryOpts tunes one QueryCtx call. The zero value (or a nil pointer) is
// the default behavior: cache enabled (when the tree has one), no trace.
type QueryOpts struct {
	// Span, when non-nil, is the caller's request span: the query stages
	// (cache probe, best-first search, cache store) are recorded as its
	// children and AnnotateSpan describes the query on it. With aggregates
	// on (obs.Span.EnableAggregates) the search also times its gmax read,
	// queue pops, node expansions and TIA probes into one row each.
	Span *obs.Span
	// NoCache bypasses the tree's shared epoch-versioned cache for this
	// query: no result-cache lookup, no store.
	NoCache bool
	// Explain, when non-nil, records the query's EXPLAIN/ANALYZE forensics:
	// the best-first pop log, heap high-water mark, per-level node accesses,
	// probe attribution, f(pk) convergence and the leftover frontier.
	// QueryCtx finishes the recorder on every path — including errors and
	// cancellation, where it carries the partial counts — and attaches its
	// compact summary to Span. A nil recorder costs one pointer test per
	// instrumented site and allocates nothing.
	Explain *Explain
}

// resultKey identifies a whole ranked result set in the shared cache. It
// embeds the tree identity so one cache can serve several trees.
type resultKey struct {
	tree   uint64
	x, y   float64
	start  int64
	end    int64
	k      int
	alpha0 float64
}

// cachedResult is what the result cache keeps of one Result: 32 bytes
// where a Result takes 56. A hit rebuilds the POI from the registry, which
// holds every cached id (any change to the tree invalidates the cache), and
// the score with the function the search used (score), so a hit answers
// exactly what the search did.
type cachedResult struct {
	id     int64
	s0, s1 float64
	agg    int64
}

// cachedResultBytes estimates the budget charge of one cachedResult (the
// struct plus its share of the slice).
const cachedResultBytes = 48

// cacheResults packs res for the result cache.
func cacheResults(res []Result) []cachedResult {
	c := make([]cachedResult, len(res))
	for i, r := range res {
		c[i] = cachedResult{id: r.POI.ID, s0: r.S0, s1: r.S1, agg: r.Agg}
	}
	return c
}

// results unpacks a cache entry for a query with weight alpha0.
func (t *Tree) results(c []cachedResult, alpha0 float64) []Result {
	res := make([]Result, len(c))
	for i, e := range c {
		res[i] = Result{POI: t.pois[e.id].poi, Score: score(alpha0, e.s0, e.s1), S0: e.s0, S1: e.s1, Agg: e.agg}
	}
	return res
}

// QueryCtx answers a kNNTA query with best-first search and returns the
// top-k results in ascending score order together with the work counters.
// The context is polled on every best-first pop; once canceled or past its deadline the search stops
// promptly and the error wraps ErrCanceled, with the stats holding valid
// partial counts. Validation failures wrap ErrInvalid. On a tree with a
// cache (Options.Cache) the whole ranked result is served from — and
// stored into — the cache unless opts.NoCache is set; a result-cache hit
// sets stats.ResultCacheHit and does no tree traversal at all. On an
// instrumented tree (Options.Metrics) the query feeds the registry.
func (t *Tree) QueryCtx(ctx context.Context, q Query, opts *QueryOpts) ([]Result, QueryStats, error) {
	var o QueryOpts
	if opts != nil {
		o = *opts
	}
	var begin time.Time
	if t.instr != nil {
		begin = time.Now()
	}
	res, stats, err := t.runQueryCtx(ctx, q, &o)
	o.Explain.Finish(res, stats, err)
	if t.instr != nil {
		t.instr.record(stats, time.Since(begin), err)
	}
	AnnotateSpan(o.Span, q, len(res), &stats, err, o.Explain)
	return res, stats, err
}

// queryAttr is a query as a span attribute: kept as the value it is, and
// rendered as "knnta(x=…, …)" only when somebody reads the trace.
type queryAttr Query

func (q queryAttr) String() string {
	return fmt.Sprintf("knnta(x=%g, y=%g, k=%d, a0=%g, iq=[%d,%d))",
		q.X, q.Y, q.K, q.Alpha0, q.Iq.Start, q.Iq.End)
}

func (q queryAttr) MarshalJSON() ([]byte, error) { return json.Marshal(q.String()) }

// AnnotateSpan describes a finished query on the span its Querier was given
// (the tree and the shard coordinator both call it), which also makes the
// trace a query trace for the ring's slowest view and slow-query log. The
// attributes are typed values: nothing is formatted on the query path.
func AnnotateSpan(sp *obs.Span, q Query, results int, stats *QueryStats, err error, ex *Explain) {
	if sp == nil {
		return
	}
	attrs := append(make([]obs.Attr, 0, 5),
		obs.Attr{Key: obs.AttrQuery, Value: queryAttr(q)},
		obs.Attr{Key: obs.AttrResults, Value: results},
		obs.Attr{Key: "node_accesses", Value: stats.NodeAccesses()})
	if err != nil {
		attrs = append(attrs, obs.Attr{Key: obs.AttrError, Value: err.Error()})
	}
	if ex != nil {
		attrs = append(attrs, obs.Attr{Key: "explain", Value: ex.Summary()})
	}
	sp.SetAttrs(attrs...)
}

func (t *Tree) runQueryCtx(ctx context.Context, q Query, o *QueryOpts) ([]Result, QueryStats, error) {
	var stats QueryStats
	if err := q.Validate(); err != nil {
		return nil, stats, err
	}
	cache := t.opts.Cache
	if o.NoCache {
		cache = nil
	}
	var rkey resultKey
	var rhash uint64
	if cache != nil {
		ps := o.Span.StartChild("cache_probe")
		rkey = resultKey{
			tree: t.id, x: q.X, y: q.Y,
			start: q.Iq.Start, end: q.Iq.End,
			k: q.K, alpha0: q.Alpha0,
		}
		rhash = hashResultKey(rkey)
		v, ok := cache.Get(rhash, rkey)
		ps.SetAttr("hit", ok)
		ps.End()
		if ok {
			stats.ResultCacheHit = true
			stats.CacheHits++
			return t.results(v.([]cachedResult), q.Alpha0), stats, nil
		}
		stats.CacheMisses++
	}
	ss := o.Span.StartChild("search")
	res, err := t.searchTopK(q, ss.Aggregating(), SearchOptions{Stats: &stats, Explain: o.Explain, Ctx: ctx})
	ss.End()
	if err != nil {
		return res, stats, err
	}
	// A result is stored the second time it is computed (aggcache.Admit):
	// a query asked once allocates no entry.
	if cache.Admit(rhash) {
		cs := o.Span.StartChild("cache_store")
		cache.Put(rhash, rkey, cacheResults(res), int64(len(res)+1)*cachedResultBytes)
		cs.End()
	}
	return res, stats, nil
}

func hashResultKey(k resultKey) uint64 {
	h := aggcache.Mix(aggcache.Seed, k.tree)
	h = aggcache.Mix(h, math.Float64bits(k.x))
	h = aggcache.Mix(h, math.Float64bits(k.y))
	h = aggcache.Mix(h, uint64(k.start))
	h = aggcache.Mix(h, uint64(k.end))
	h = aggcache.Mix(h, uint64(k.k))
	return aggcache.Mix(h, math.Float64bits(k.alpha0))
}
