package core

import (
	"fmt"
	"sync"
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

	// Attributed I/O counters, one per (component, level, event) actually
	// observed. Created lazily so the exposition shows only series with
	// traffic; the cache avoids re-formatting the labeled name per query.
	reg    *obs.Registry
	ioMu   sync.Mutex
	ioHits [pagestore.NumComponents][pagestore.MaxIOLevels]*obs.Counter
	ioMiss [pagestore.NumComponents][pagestore.MaxIOLevels]*obs.Counter
	ioEvic [pagestore.NumComponents][pagestore.MaxIOLevels]*obs.Counter
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

// ioCounters returns (creating on first use) the hit/miss/eviction
// counters of one breakdown cell.
func (in *instruments) ioCounters(c pagestore.Component, level int) (hits, misses, evic *obs.Counter) {
	in.ioMu.Lock()
	defer in.ioMu.Unlock()
	if in.ioHits[c][level] == nil {
		in.ioHits[c][level] = in.reg.Counter(fmt.Sprintf(
			`tartree_io_page_reads_total{component=%q,level="%d",result="hit"}`, c.String(), level))
		in.ioMiss[c][level] = in.reg.Counter(fmt.Sprintf(
			`tartree_io_page_reads_total{component=%q,level="%d",result="miss"}`, c.String(), level))
		in.ioEvic[c][level] = in.reg.Counter(fmt.Sprintf(
			`tartree_io_evictions_total{component=%q,level="%d"}`, c.String(), level))
	}
	return in.ioHits[c][level], in.ioMiss[c][level], in.ioEvic[c][level]
}

// record folds one finished query into the metrics: the paper's work
// counters (QueryStats) plus the wall-clock latency the paper never
// measured. A failed or canceled query still did the work in its stats —
// the pagestore and probe series have already counted it — so the work
// counters take it too and the two families keep agreeing.
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
	stats.IO.Each(func(c pagestore.Component, level int, cell pagestore.IOCell) {
		hits, misses, evic := in.ioCounters(c, level)
		hits.Add(cell.Hits)
		misses.Add(cell.Misses)
		evic.Add(cell.Evictions)
	})
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

// sinkAttacher is satisfied by the disk-backed tia factories; the memory
// factory implements it as a no-op.
type sinkAttacher interface{ AttachSink(pagestore.BulkSink) }
