package bench

import (
	"context"
	"fmt"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/lbsn"
)

// Cache experiment defaults: a repeated-interval workload — many query
// points sharing a handful of distinct intervals; the shared cache pays off
// through whole-result hits when a query repeats.
const (
	cacheIntervals = 4
	cacheBytes     = 32 << 20 // large enough that the workload never evicts
)

// cachePasses are the three passes over the identical batch; every pass
// after the cold one must answer exactly as the cold one did.
var cachePasses = []struct {
	name string
	opts *core.QueryOpts
}{
	{"cold (nocache)", &core.QueryOpts{NoCache: true}},
	{"first (cached)", nil},
	{"warm (repeat)", nil},
}

// cacheExp measures the epoch-versioned cache on a repeated-interval
// workload, per TIA backend: a cold pass with the cache bypassed (the
// uncached baseline), a first cached pass (every lookup misses and stores)
// and a warm pass over the identical batch (whole-result hits, zero
// traversal). Two correctness gates ride along: every cached answer must
// equal its uncached twin, and after a live ingest is flushed the
// invalidated cache must again agree with the tree.
//
// The exported counters depend only on the workload shape — never on
// timing — so benchdiff can gate on them:
//
//	bench_cache_queries_total{backend="..."}
//	bench_cache_cold_tia_reads_total{backend="..."}
//	bench_cache_warm_result_hits_total{backend="..."}
//	bench_cache_warm_tia_reads_total{backend="..."}
func cacheExp(r *run, env *dataEnv) error {
	ivs := env.QueryIntervals(cacheIntervals, r.Seed+17)
	queries := env.QueriesWithIntervals(r.Queries, defaultK, defaultAlpha, r.Seed+17, ivs)
	t := r.table(fmt.Sprintf("Cache: repeated-interval workload (%s, scale %.2f, %d queries over %d intervals)",
		env.name, env.scale, len(queries), cacheIntervals),
		"backend", "pass", "ms/query", "TIA reads", "result hits", "speedup vs cold")
	ctx := context.Background()
	for _, b := range tiaBackends {
		tr, err := env.Build(lbsn.BuildOptions{
			Grouping: core.TAR3D,
			NodeSize: defaultNodeSize,
			TIA:      b.fac(),
			Cache:    aggcache.New(cacheBytes),
		})
		if err != nil {
			return err
		}
		ms := make([]measurement, len(cachePasses))
		for i, p := range cachePasses {
			if ms[i], err = r.measure("", tr, queries, p.opts); err != nil {
				return err
			}
			if i > 0 {
				if err := sameBatch(exact, b.name+" "+p.name, ms[0], ms[i]); err != nil {
					return err
				}
			}
		}
		cold, warm := ms[0], ms[2]

		// Invalidation gate: a live ingest folded into a fresh epoch must
		// leave cached and uncached answers in agreement again.
		at := env.Spec.End
		for _, res := range cold.answers[:4] {
			for n := 0; n < 20 && len(res) > 0; n++ {
				if err := tr.AddCheckIn(res[0].POI.ID, at); err != nil {
					return fmt.Errorf("%s: ingest: %w", b.name, err)
				}
			}
		}
		if err := tr.FlushEpochs(at + defaultEpoch); err != nil {
			return err
		}
		for i, qu := range queries[:4] {
			plain, _, err := tr.QueryCtx(ctx, qu, &core.QueryOpts{NoCache: true})
			if err != nil {
				return err
			}
			cached, stats, err := tr.QueryCtx(ctx, qu, nil)
			if err != nil {
				return err
			}
			if stats.ResultCacheHit {
				return fmt.Errorf("%s query %d: stale result served after ingest", b.name, i)
			}
			if err := sameAnswers(exact, plain, cached); err != nil {
				return fmt.Errorf("%s query %d after ingest: %w", b.name, i, err)
			}
		}

		r.count("bench_cache_queries_total", int64(len(queries)), "backend", b.name)
		r.count("bench_cache_cold_tia_reads_total", cold.work.TIAAccesses, "backend", b.name)
		r.count("bench_cache_warm_result_hits_total", warm.resultHits, "backend", b.name)
		r.count("bench_cache_warm_tia_reads_total", warm.work.TIAAccesses, "backend", b.name)
		for i, m := range ms {
			speedup := "-"
			if i > 0 && m.elapsed > 0 {
				speedup = fmt.Sprintf("%.1f×", float64(cold.elapsed)/float64(m.elapsed))
			}
			t.add(b.name, cachePasses[i].name, m.meanMS(), m.work.TIAAccesses, m.resultHits, speedup)
		}
	}
	return nil
}
