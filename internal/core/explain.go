package core

import (
	"sort"

	"tartree/internal/obs"
)

// Explain is the per-query EXPLAIN/ANALYZE recorder: attached to one
// QueryCtx call via QueryOpts.Explain, it captures the best-first search
// forensics pop by pop — which nodes were expanded at which Property-1
// lower bound, how the kth-score f(pk) converged, how deep the priority
// queue grew — plus, from the query's stats, its TIA reads and cache
// lookups, and (when a planner ran first) the Section-6 cost-model
// estimates to compare the actuals against.
//
// A nil *Explain is the disabled state: every method no-ops, so the query
// path pays one pointer test per instrumented site and allocates nothing
// (pinned by TestExplainNilRecorderNoAllocs). The recorder is bound to a
// single query and is not safe for concurrent use.
//
// Counts (Pops, HeapMax, NodeAccessesByLevel, probe counters) are always
// exact; the pop-by-pop log and the leftover frontier are capped at
// ExplainMaxPops/ExplainMaxFrontier entries with the Truncated flags set,
// so an adversarially deep search cannot balloon the recorder.
type Explain struct {
	// Plan carries the cost-model estimates when a planner ran before the
	// query; nil when the query executed unplanned.
	Plan *ExplainPlan `json:"plan,omitempty"`

	// Pops counts every priority-queue pop; HeapMax is the queue's
	// high-water mark over the whole search.
	Pops    int `json:"pops"`
	HeapMax int `json:"heap_max"`
	// NodeAccessesByLevel counts R-tree node reads by level (index 0 =
	// leaf), root read included. Its sum equals the query's
	// InternalAccesses + LeafAccesses.
	NodeAccessesByLevel []int64 `json:"node_accesses_by_level,omitempty"`
	// PopLog is the pop-by-pop record of the search (capped; counts above
	// stay exact). Level -1 marks a POI pop — in the top-k search every
	// popped POI is emitted as the next result.
	PopLog       []ExplainPop `json:"pop_log,omitempty"`
	LogTruncated bool         `json:"pop_log_truncated,omitempty"`
	// Convergence is the f(pk) timeline: one point per emitted result,
	// with the pop at which it surfaced. The last point's score is the
	// actual f(pk).
	Convergence []ExplainPoint `json:"convergence,omitempty"`
	// Frontier is the priority queue left over when the search stopped —
	// the subtrees the Property-1 bound pruned (never expanded), in
	// ascending bound order (capped). FrontierSize is the exact count.
	Frontier          []ExplainNode `json:"frontier,omitempty"`
	FrontierSize      int           `json:"frontier_size"`
	FrontierTruncated bool          `json:"frontier_truncated,omitempty"`

	// Probe attribution, copied from the query's QueryStats by Finish.
	TIAReads       int64 `json:"tia_reads"`
	TIAPhysical    int64 `json:"tia_physical"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	ResultCacheHit bool  `json:"result_cache_hit,omitempty"`

	// Set by Finish.
	Results  int     `json:"results"`
	ActualFk float64 `json:"actual_fk"`
	Err      string  `json:"error,omitempty"`

	// Shards carries the per-shard attribution when the query ran through
	// the scatter-gather coordinator (internal/shard): one row per shard,
	// in shard order. Empty for local execution.
	Shards []ExplainShard `json:"shards,omitempty"`

	done bool
}

// ExplainShard is one shard's contribution to a scatter-gather query: how
// many candidates it sent and how much search work it did. The coordinator
// fills one per shard; remote explains round-trip it through JSON.
type ExplainShard struct {
	// Shard is the shard index (position in the coordinator's shard list);
	// URL is its base endpoint.
	Shard int    `json:"shard"`
	URL   string `json:"url"`
	// Results counts the candidates this shard sent the coordinator: its
	// top k, fewer when it holds fewer POIs.
	Results int `json:"results"`
	// NodeAccesses and TIAReads are the shard-local search work.
	NodeAccesses int64 `json:"node_accesses"`
	TIAReads     int64 `json:"tia_reads"`
	// ElapsedMicros is the coordinator-observed wall time of this shard's
	// query request (straggler attribution).
	ElapsedMicros int64 `json:"elapsed_micros"`
}

// ExplainPlan is the planner's side of an explain: the Section-6 estimates
// and engine choice made before the query ran. internal/planner fills it;
// core only carries it so one object travels the whole pipeline.
type ExplainPlan struct {
	// Engine names the chosen execution strategy ("tar-tree" or
	// "sequential-scan").
	Engine string `json:"engine"`
	// EstimatedFk is the Section-6.2 estimate of the kth result's score.
	EstimatedFk float64 `json:"est_fk"`
	// EstimatedLeafAccesses is the Section-6.3 leaf node-access estimate;
	// EstimatedNodeAccesses adds the proportional internal accesses and
	// the normalization read.
	EstimatedLeafAccesses float64 `json:"est_leaf_accesses"`
	EstimatedNodeAccesses float64 `json:"est_node_accesses"`
	// IndexCost and ScanCost are the compared costs, in microseconds when
	// the planner is calibrated, otherwise in abstract page units.
	IndexCost  float64 `json:"index_cost"`
	ScanCost   float64 `json:"scan_cost"`
	Calibrated bool    `json:"calibrated,omitempty"`
	// Bands is the Section-6.3 node-access estimation detail: one row per
	// slab of cubic leaf nodes intersected with the search cone.
	Bands []ExplainBand `json:"bands,omitempty"`
}

// ExplainBand is one slab of the Section-6.3 leaf-access estimation.
type ExplainBand struct {
	Nodes  float64 `json:"nodes"`  // expected nodes in the band
	Side   float64 `json:"side"`   // node extent S_y
	Radius float64 `json:"radius"` // cone cross-section radius at the band
	P      float64 `json:"p"`      // access probability
}

// ExplainPop is one best-first pop: the popped element's Property-1 lower
// bound and components, and the queue depth after the pop.
type ExplainPop struct {
	Seq     int     `json:"seq"`
	Level   int     `json:"level"` // child level; -1 = POI (leaf entry)
	POI     int64   `json:"poi,omitempty"`
	Bound   float64 `json:"bound"` // Property-1 lower bound (queue priority)
	S0      float64 `json:"s0"`
	S1      float64 `json:"s1"`
	HeapLen int     `json:"heap_len"`
}

// ExplainPoint is one step of the kth-score convergence timeline.
type ExplainPoint struct {
	Pop   int     `json:"pop"`
	Rank  int     `json:"rank"`
	Score float64 `json:"score"`
}

// ExplainNode is one never-expanded frontier element left in the queue
// when the search stopped.
type ExplainNode struct {
	Level int     `json:"level"` // -1 = POI
	POI   int64   `json:"poi,omitempty"`
	Bound float64 `json:"bound"`
}

// ExplainMaxPops and ExplainMaxFrontier cap the stored pop log and
// frontier snapshot; the scalar counters stay exact past the caps.
const (
	ExplainMaxPops     = 4096
	ExplainMaxFrontier = 256
)

// NewExplain creates an empty recorder for QueryOpts.Explain.
func NewExplain() *Explain { return &Explain{} }

// NodeAccesses returns the total R-tree node accesses the recorder counted
// (root read plus every expansion), derived purely from the explain's own
// per-level tallies — the number the conservation test reconciles against
// QueryStats. Zero on a nil recorder.
func (e *Explain) NodeAccesses() int64 {
	if e == nil {
		return 0
	}
	var total int64
	for _, n := range e.NodeAccessesByLevel {
		total += n
	}
	return total
}

// recordNodeAccess tallies one R-tree node read at the given level.
func (e *Explain) recordNodeAccess(level int) {
	if e == nil {
		return
	}
	for len(e.NodeAccessesByLevel) <= level {
		e.NodeAccessesByLevel = append(e.NodeAccessesByLevel, 0)
	}
	e.NodeAccessesByLevel[level]++
}

// recordPush tracks the heap high-water mark after a push.
func (e *Explain) recordPush(heapLen int) {
	if e == nil {
		return
	}
	if heapLen > e.HeapMax {
		e.HeapMax = heapLen
	}
}

// recordPop logs one priority-queue pop of search s.
func (e *Explain) recordPop(s *Search, el Elem) {
	if e == nil {
		return
	}
	e.Pops++
	if len(e.PopLog) >= ExplainMaxPops {
		e.LogTruncated = true
		return
	}
	p := ExplainPop{
		Seq:     e.Pops,
		Level:   s.level(el),
		Bound:   el.Score,
		S0:      el.S0,
		S1:      el.S1,
		HeapLen: len(s.queue),
	}
	if el.IsPOI() {
		p.POI = s.ft.Items[el.entry]
	}
	e.PopLog = append(e.PopLog, p)
}

// recordResult extends the convergence timeline with the rank-th result
// (1-based), which surfaced at the current pop count.
func (e *Explain) recordResult(rank int, score float64) {
	if e == nil {
		return
	}
	e.Convergence = append(e.Convergence, ExplainPoint{Pop: e.Pops, Rank: rank, Score: score})
}

// captureFrontier snapshots the search's leftover priority queue: the
// subtrees (and POIs) the bound pruned. Called when the search stops for
// any reason, including cancellation — a canceled query's explain reports
// the partial frontier instead of nothing.
func (e *Explain) captureFrontier(s *Search) {
	if e == nil || s == nil {
		return
	}
	e.FrontierSize = len(s.queue)
	n := len(s.queue)
	if n > ExplainMaxFrontier {
		n = ExplainMaxFrontier
		e.FrontierTruncated = true
	}
	// The heap slice is only partially ordered; sort a copy by bound so
	// the rendered frontier reads best-first.
	elems := append([]Elem(nil), s.queue...)
	sort.Slice(elems, func(i, j int) bool { return elems[i].Score < elems[j].Score })
	e.Frontier = make([]ExplainNode, 0, n)
	for _, el := range elems[:n] {
		fn := ExplainNode{Level: s.level(el), Bound: el.Score}
		if el.IsPOI() {
			fn.POI = s.ft.Items[el.entry]
		}
		e.Frontier = append(e.Frontier, fn)
	}
}

// Finish seals the recorder with the query's outcome: result count, actual
// f(pk) (the last result's score), and the TIA reads and cache lookups in
// stats. Idempotent, so the planner may finish a scan-path explain the tree
// never saw; nil-safe like every other method. QueryCtx calls it on every
// path, including errors — a canceled query's explain carries the partial
// counts and frontier with Err set.
func (e *Explain) Finish(results []Result, stats QueryStats, err error) {
	if e == nil || e.done {
		return
	}
	e.done = true
	e.TIAReads = stats.TIAAccesses
	e.TIAPhysical = stats.TIAPhysical
	e.CacheHits = stats.CacheHits
	e.CacheMisses = stats.CacheMisses
	e.ResultCacheHit = stats.ResultCacheHit
	e.Results = len(results)
	if len(results) > 0 {
		e.ActualFk = results[len(results)-1].Score
	}
	if err != nil {
		e.Err = err.Error()
	}
}

// Summary condenses the explain into the compact neutral form QueryCtx
// attaches to the query's span. Nil on a nil recorder.
func (e *Explain) Summary() *obs.ExplainSummary {
	if e == nil {
		return nil
	}
	s := &obs.ExplainSummary{
		ActualAccesses: e.NodeAccesses(),
		ActualFk:       e.ActualFk,
		Pops:           e.Pops,
		HeapMax:        e.HeapMax,
		Frontier:       e.FrontierSize,
		TIAReads:       e.TIAReads,
		CacheHits:      e.CacheHits,
		ResultCacheHit: e.ResultCacheHit,
		Truncated:      e.LogTruncated || e.FrontierTruncated,
	}
	if p := e.Plan; p != nil {
		s.Engine = p.Engine
		s.EstimatedAccesses = p.EstimatedNodeAccesses
		s.EstimatedFk = p.EstimatedFk
		if actual := float64(s.ActualAccesses); actual > 0 {
			s.AccessError = (p.EstimatedNodeAccesses - actual) / actual
		}
	}
	return s
}
