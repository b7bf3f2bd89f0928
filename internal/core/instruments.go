package core

import (
	"fmt"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/obs"
	"tartree/internal/pagestore"
	"tartree/internal/tia"
)

// instruments is the tree's bridge into an obs.Registry. All metrics are
// shared by trees that share a registry (the registry getters are
// idempotent), so a process serving several groupings still exports one
// coherent set of series.
type instruments struct {
	queries     *obs.Counter
	queryErrors *obs.Counter
	results     *obs.Counter
	latency     *obs.Histogram
	internals   *obs.Counter
	leaves      *obs.Counter
	tiaLogical  *obs.Counter
	tiaPhysical *obs.Counter
	scored      *obs.Counter
	reg         *obs.Registry
}

func newInstruments(r *obs.Registry) *instruments {
	registerTIAProbes(r)
	return &instruments{
		queries:     r.Counter("tartree_queries_total"),
		queryErrors: r.Counter("tartree_query_errors_total"),
		results:     r.Counter("tartree_results_total"),
		latency:     r.Histogram("tartree_query_latency_seconds", nil),
		internals:   r.Counter(`tartree_rtree_node_accesses_total{level="internal"}`),
		leaves:      r.Counter(`tartree_rtree_node_accesses_total{level="leaf"}`),
		tiaLogical:  r.Counter(`tartree_tia_page_reads_total{kind="logical"}`),
		tiaPhysical: r.Counter(`tartree_tia_page_reads_total{kind="physical"}`),
		scored:      r.Counter("tartree_entries_scored_total"),
		reg:         r,
	}
}

// record folds one finished query into the metrics: the paper's work
// counters (QueryStats) plus the wall-clock latency the paper never
// measured. A failed or canceled query still did the work in its stats —
// the factory's ledger and the probe totals have already counted it — so
// the work counters take it too and the two families keep agreeing.
func (in *instruments) record(stats QueryStats, nresults int, d time.Duration, err error) {
	if in == nil {
		return
	}
	in.queries.Inc()
	in.latency.Observe(d.Seconds())
	if err != nil {
		in.queryErrors.Inc()
	}
	in.results.Add(int64(nresults))
	in.internals.Add(int64(stats.InternalAccesses))
	in.leaves.Add(int64(stats.LeafAccesses))
	in.tiaLogical.Add(stats.TIAAccesses)
	in.tiaPhysical.Add(stats.TIAPhysical)
	in.scored.Add(int64(stats.Scored))
}

// registerCacheMetrics exports the shared epoch-versioned cache's counters
// as tartree_aggcache_* series. Re-registration replaces the callbacks, so
// trees sharing one registry should also share one cache (the usual
// deployment); otherwise the last tree's cache wins.
func registerCacheMetrics(r *obs.Registry, c *aggcache.Cache) {
	r.CounterFunc("tartree_aggcache_hits_total", func() int64 { return c.Snapshot().Hits })
	r.CounterFunc("tartree_aggcache_misses_total", func() int64 { return c.Snapshot().Misses })
	r.CounterFunc("tartree_aggcache_evictions_total", func() int64 { return c.Snapshot().Evictions })
	r.CounterFunc("tartree_aggcache_invalidated_total", func() int64 { return c.Snapshot().Invalidated })
	r.GaugeFunc("tartree_aggcache_bytes", func() float64 { return float64(c.Snapshot().Bytes) })
	r.GaugeFunc("tartree_aggcache_entries", func() float64 { return float64(c.Snapshot().Entries) })
	r.GaugeFunc("tartree_aggcache_version", func() float64 { return float64(c.Snapshot().Version) })
}

// registerTIAProbes exports the process-wide per-backend probe totals.
func registerTIAProbes(r *obs.Registry) {
	for _, k := range tia.BackendKinds() {
		k := k
		r.CounterFunc(fmt.Sprintf(`tartree_tia_probes_total{backend=%q}`, k.String()),
			func() int64 { return tia.ProbeCount(k) })
	}
}

// registerPageMetrics exports a TIA factory's page-traffic ledger as the
// tartree_pagestore_* series, read at scrape time: build and ingest traffic
// as it happened, queries' traffic once they folded it. Re-registration
// replaces the callbacks, so of several trees sharing one registry the last
// tree's factory wins.
func registerPageMetrics(r *obs.Registry, l *pagestore.Ledger) {
	total := func(pick func(pagestore.Stats) int64) func() int64 {
		return func() int64 { return pick(l.Stats()) }
	}
	const p = "tartree_pagestore"
	r.CounterFunc(p+`_reads_total{result="hit"}`, total(pagestore.Stats.Hits))
	r.CounterFunc(p+`_reads_total{result="miss"}`, total(pagestore.Stats.Misses))
	r.CounterFunc(p+`_writes_total{kind="logical"}`, total(func(s pagestore.Stats) int64 { return s.LogicalWrites }))
	r.CounterFunc(p+`_writes_total{kind="physical"}`, total(func(s pagestore.Stats) int64 { return s.PhysicalWrites }))
	// The dirty count is read first: evictions only grow, so a scrape racing
	// an eviction cannot report a negative clean count.
	r.CounterFunc(p+`_evictions_total{kind="clean"}`, func() int64 {
		dirty := l.DirtyEvictions()
		return l.Stats().Evictions - dirty
	})
	r.CounterFunc(p+`_evictions_total{kind="dirty"}`, l.DirtyEvictions)
}
