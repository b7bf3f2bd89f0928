package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/shard"
)

// shardBenchN is the shard count of the experiment fleet — the 2×2 STR
// grid the README quickstart also uses.
const shardBenchN = 4

// shardBenchNodeSize shrinks the nodes so every shard's slice still spans
// multiple tree levels: with the 1 KiB default a quarter of the corpus fits
// in one leaf and there is no frontier left for the global bound to prune.
const shardBenchNodeSize = 256

// shardExp measures scatter-gather kNNTA over loopback HTTP: the effective
// POI set is STR-partitioned across four shard servers, and the same query
// battery runs two ways — on a single-node tree and through the
// coordinator, which sends every shard one query request per query. One
// gate rides along: the coordinator's answers must be exactly identical to
// single-node execution (ids AND scores — the shards index their slices
// over the full world rectangle, so per-POI scores are bit-identical).
//
// The exported counters depend only on the workload shape, never on
// timing (the fleet is static, so the coordinator fetches the global TIA
// once and no shard refuses a query):
//
//	bench_shard_queries_total
//	bench_shard_results_total
//	bench_shard_fanout_total
//	bench_shard_node_accesses_single_total
//	bench_shard_node_accesses_scatter_total
func shardExp(r *run, env *dataEnv) error {
	single, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: shardBenchNodeSize})
	if err != nil {
		return err
	}
	pois := env.EffectivePOIs(0, 0)
	if len(pois) < shardBenchN {
		return fmt.Errorf("only %d effective POIs at scale %.2f", len(pois), env.scale)
	}
	m, err := shard.Partition(pois, shardBenchN, env.World)
	if err != nil {
		return err
	}
	urls := make([]string, shardBenchN)
	for i := 0; i < shardBenchN; i++ {
		idx := i
		tr, err := env.Build(lbsn.BuildOptions{
			Grouping: core.TAR3D,
			NodeSize: shardBenchNodeSize,
			Keep:     func(p core.POI) bool { return m.Locate(p.X, p.Y) == idx },
		})
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		(&shard.Server{
			Data:   shard.TreeViewer{Tree: tr},
			Index:  idx,
			N:      shardBenchN,
			Region: m.Region(idx),
		}).Register(mux)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		urls[i] = srv.URL
	}

	queries := env.Queries(r.Queries, defaultK, defaultAlpha, r.Seed+43)
	met := shard.NewMetrics(obs.NewRegistry())
	oracle, err := r.measure("", single, queries, &core.QueryOpts{NoCache: true})
	if err != nil {
		return err
	}
	sharded, err := r.measure("", &shard.Coordinator{Shards: urls, Metrics: met}, queries, nil)
	if err != nil {
		return err
	}
	if err := sameBatch(exact, "coordinator vs single-node", oracle, sharded); err != nil {
		return err
	}

	singleWork, shardedWork := oracle.nodeAccesses(), sharded.nodeAccesses()
	r.count("bench_shard_queries_total", int64(len(queries)))
	r.count("bench_shard_results_total", oracle.results)
	r.count("bench_shard_fanout_total", met.Fanout.Value())
	r.count("bench_shard_node_accesses_single_total", singleWork)
	r.count("bench_shard_node_accesses_scatter_total", shardedWork)

	t := r.table(fmt.Sprintf("Sharding: scatter-gather kNNTA over %d shards, loopback HTTP (%s ×%.2f, %d queries; answers identical to single-node)",
		shardBenchN, env.name, env.scale, len(queries)),
		"mode", "node accesses", "shard requests", "elapsed (ms)")
	t.add("single-node", singleWork, "-", f1(oracle.elapsed.Seconds()*1000))
	t.add("scatter-gather", shardedWork, met.Fanout.Value(), f1(sharded.elapsed.Seconds()*1000))
	return nil
}
