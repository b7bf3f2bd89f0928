// Package tartree is the public facade of the TAR-tree library, a
// reproduction of "K-Nearest Neighbor Temporal Aggregate Queries" (Sun,
// Qi, Zheng, Zhang; EDBT 2015).
//
// A k-nearest neighbor temporal aggregate (kNNTA) query returns the top-k
// points of interest ranked by a weighted sum of (i) the spatial distance
// to a query point and (ii) a temporal aggregate — the count of check-ins —
// over a query time interval:
//
//	f(p) = α0·d(p, q) + (1−α0)·(1 − g(p, Iq))
//
// The TAR-tree answers such queries with best-first search over an R-tree
// whose every entry carries a temporal index on the aggregate (TIA), with
// entries grouped by the integral 3D strategy: two spatial dimensions plus
// one aggregate-rate dimension.
//
// # Quick start
//
//	tr, err := tartree.New(tartree.Options{
//		World:       tartree.WorldRect(0, 0, 100, 100),
//		EpochStart:  0,
//		EpochLength: 3600, // one hour
//	})
//	tr.InsertPOI(tartree.POI{ID: 1, X: 10, Y: 20}, nil)
//	tr.AddCheckIn(1, now)
//	tr.FlushEpochs(now)
//	results, stats, err := tr.QueryCtx(ctx, tartree.Query{
//		X: 12, Y: 18,
//		Iq:     tartree.Interval{Start: now - 3600, End: now},
//		K:      10,
//		Alpha0: 0.3,
//	}, nil)
//
// Beyond queries, the library provides the paper's two enhancements — the
// minimum weight adjustment (internal/mwa) and collective batch processing
// (internal/batch) — plus the Section 6 cost model (internal/costmodel),
// power-law fitting (internal/powerlaw), calibrated LBSN data generation
// (internal/lbsn), and the experiment harness that regenerates every table
// and figure of the paper's evaluation (internal/bench, cmd/tarbench).
package tartree

import (
	"io"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/planner"
	"tartree/internal/tia"
)

// Re-exported core types: the facade keeps downstream code decoupled from
// internal package paths.
type (
	// Tree is a TAR-tree index.
	Tree = core.Tree
	// Options configures a Tree.
	Options = core.Options
	// POI is a point of interest.
	POI = core.POI
	// Query is a kNNTA query.
	Query = core.Query
	// Result is one ranked answer.
	Result = core.Result
	// QueryStats counts the work a query performed.
	QueryStats = core.QueryStats
	// Grouping selects the entry-grouping strategy.
	Grouping = core.Grouping
	// Interval is a half-open time interval.
	Interval = tia.Interval
	// Record is one epoch's aggregate ⟨ts, te, agg⟩.
	Record = tia.Record
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Epochs discretizes the time axis; FixedEpochs is the uniform grid,
	// GeometricEpochs the varied-length grid of Section 3.1.
	Epochs = core.Epochs
	// FixedEpochs is the uniform epoch grid.
	FixedEpochs = core.FixedEpochs
	// GeometricEpochs is the doubling-length epoch grid.
	GeometricEpochs = core.GeometricEpochs
	// AggFunc folds matched epochs into the temporal aggregate.
	AggFunc = tia.Func
	// MetricsRegistry collects the tree's metrics when set in
	// Options.Metrics; serve it with its WriteTo (Prometheus text format).
	MetricsRegistry = obs.Registry
	// QueryOpts tunes one (*Tree).QueryCtx call: request span, cache
	// bypass, access-counting control. The zero value (or nil) is the
	// default behavior.
	QueryOpts = core.QueryOpts
	// Querier is the one call shape every kNNTA execution engine exposes:
	// a local Tree, a durable WAL store, a remote tarserve over HTTP and
	// the scatter-gather shard coordinator all implement it, so callers
	// are written once against the interface.
	Querier = core.Querier
	// Span is one node of a structured span tree; pass a request span via
	// QueryOpts.Span and the query stages (cache probe, best-first search,
	// cache store) are recorded as its children; EnableAggregates on it
	// additionally times the search's gmax read, queue pops, node
	// expansions and TIA probes into one row each. A nil *Span is a no-op.
	Span = obs.Span
	// SpanContext identifies a span for W3C traceparent propagation.
	SpanContext = obs.SpanContext
	// FinishedTrace is a completed span tree as delivered to a TraceSink;
	// render it with WriteTree or export it with WriteChromeTrace.
	FinishedTrace = obs.FinishedTrace
	// TraceSink receives finished span traces.
	TraceSink = obs.TraceSink
	// TraceRing is the in-memory TraceSink: the most recent finished
	// traces and the slowest query traces.
	TraceRing = obs.TraceRing
	// Cache is the shared epoch-versioned result cache attached
	// via Options.Cache; build one with NewCache.
	Cache = aggcache.Cache
	// CacheStats is a point-in-time snapshot of a Cache's counters.
	CacheStats = aggcache.Stats
	// Explain is the per-query EXPLAIN/ANALYZE recorder: create one with
	// NewExplain, attach it via QueryOpts.Explain, and after the query it
	// holds the plan (when a planner ran), the best-first pop log, the f(pk)
	// convergence timeline, the pruned frontier and the probe attribution.
	// A nil *Explain is free.
	Explain = core.Explain
	// ExplainPlan is the planner's side of an explain: engine choice and
	// Section-6 estimates.
	ExplainPlan = core.ExplainPlan
	// ExplainPop is one best-first pop of an explain's pop log.
	ExplainPop = core.ExplainPop
	// ExplainPoint is one step of the kth-score convergence timeline.
	ExplainPoint = core.ExplainPoint
	// ExplainNode is one never-expanded frontier element.
	ExplainNode = core.ExplainNode
	// ExplainBand is one slab of the Section-6.3 node-access estimation.
	ExplainBand = core.ExplainBand
	// ExplainShard is one shard's attribution row in a coordinator's
	// explain: candidates shipped, work counters, request latency.
	ExplainShard = core.ExplainShard
	// Planner is the Section-6 cost-model query optimizer; build one with
	// NewPlanner (both engines) or NewPlanEstimator (estimates only).
	Planner = planner.Planner
	// Plan is the optimizer's decision with its supporting estimates.
	Plan = planner.Plan
	// Engine names the execution strategy a Plan selects.
	Engine = planner.Engine
)

// Engines a Plan can select.
const (
	// UseIndex answers with best-first search over the TAR-tree.
	UseIndex = planner.UseIndex
	// UseScan answers with the sequential scan.
	UseScan = planner.UseScan
)

// Sentinel errors of the query path, for errors.Is.
var (
	// ErrInvalid is wrapped by every query-validation failure.
	ErrInvalid = core.ErrInvalid
	// ErrCanceled is wrapped when a query's context is canceled or its
	// deadline passes; the stats returned alongside are valid partial
	// counts.
	ErrCanceled = core.ErrCanceled
)

// Aggregate functions (Section 3.1).
const (
	// AggSum counts check-ins over the interval (the default).
	AggSum = tia.FuncSum
	// AggMax ranks by the busiest single epoch in the interval.
	AggMax = tia.FuncMax
)

// Grouping strategies (Section 5 of the paper).
const (
	// TAR3D is the integral 3D strategy — the TAR-tree proper.
	TAR3D = core.TAR3D
	// IndSpa groups by spatial extents only.
	IndSpa = core.IndSpa
	// IndAgg groups by aggregate-distribution similarity.
	IndAgg = core.IndAgg
)

// New creates an empty TAR-tree.
func New(opts Options) (*Tree, error) { return core.NewTree(opts) }

// NewMetrics creates an empty metrics registry for Options.Metrics.
func NewMetrics() *MetricsRegistry { return obs.NewRegistry() }

// NewExplain creates an empty EXPLAIN/ANALYZE recorder for
// QueryOpts.Explain.
func NewExplain() *Explain { return core.NewExplain() }

// NewPlanner builds a cost-model planner for tr with both engines: Plan
// chooses between the TAR-tree and a sequential scan materialized from the
// tree's POI histories, and Query executes the choice.
func NewPlanner(tr *Tree) (*Planner, error) { return planner.New(tr) }

// NewPlanEstimator builds an estimate-only planner: Plan and the
// calibration metrics work, but no scan engine is materialized and Query
// always executes the tree. Servers attach one for EXPLAIN support.
func NewPlanEstimator(tr *Tree) *Planner { return planner.NewEstimator(tr) }

// StartTrace opens a root span whose finished span tree is delivered to
// sink when the span's Finish is called. A zero parent starts a fresh
// trace; a parent parsed from a W3C traceparent joins the caller's trace.
func StartTrace(name string, parent SpanContext, sink TraceSink) *Span {
	return obs.StartTrace(name, parent, sink)
}

// NewTraceRing creates a ring keeping the last n finished traces and the n
// slowest query traces, for use as the sink of StartTrace.
func NewTraceRing(n int) *TraceRing { return obs.NewTraceRing(n) }

// NewCache creates a shared epoch-versioned cache bounded to roughly
// maxBytes for Options.Cache. maxBytes <= 0 returns nil, the no-op cache.
func NewCache(maxBytes int64) *Cache { return aggcache.New(maxBytes) }

// Load reconstructs a tree from the snapshot-v3 image (*Tree).SaveSnapshot
// writes, the one snapshot format; any other input is refused. The tree
// arrives with the frozen layout installed. A nil factory selects the
// default in-memory TIAs.
func Load(r io.Reader, factory tia.Factory) (*Tree, error) {
	return core.LoadSnapshot(r, factory)
}

// WorldRect builds the 2D world rectangle from corner coordinates.
func WorldRect(x0, y0, x1, y1 float64) Rect {
	return Rect{Min: geo.Vector{x0, y0}, Max: geo.Vector{x1, y1}}
}
