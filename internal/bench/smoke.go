package bench

import (
	"fmt"
	"os"

	"tartree/internal/wal"
)

// appendAndReplay appends records check-ins (POI ids cycling over pois)
// through a fresh write-ahead log in a temporary directory, serially and
// batch per call with fsync off, then closes the log, reopens it and counts
// the records back: every acknowledged record must replay.
func appendAndReplay(records, batch int, pois int64) (appends, replayed int, err error) {
	dir, err := os.MkdirTemp("", "tartree-ingest-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	fs, err := wal.NewDirFS(dir)
	if err != nil {
		return 0, 0, err
	}
	log, err := wal.OpenLog(fs, wal.LogOptions{NoSync: true}, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	for start := 0; start < records; start += batch {
		cs := make([]wal.CheckIn, 0, batch)
		for id := int64(start); id < int64(min(start+batch, records)); id++ {
			cs = append(cs, wal.CheckIn{POI: id % pois, At: id})
		}
		if _, err := log.Append(cs); err != nil {
			log.Close() // the append error is the one to report
			return appends, 0, err
		}
		appends++
	}
	if err := log.Close(); err != nil {
		return appends, 0, err
	}

	reopened, err := wal.OpenLog(fs, wal.LogOptions{NoSync: true}, 0,
		func(uint64, wal.CheckIn) error { replayed++; return nil })
	if err != nil {
		return appends, replayed, err
	}
	if err := reopened.Close(); err != nil {
		return appends, replayed, err
	}
	if replayed != records {
		return appends, replayed, fmt.Errorf("replayed %d of %d appended records", replayed, records)
	}
	return appends, replayed, nil
}

// smoke is the regression probe behind cmd/benchdiff: one small data set,
// all four methods, a fixed deterministic query batch, then a deterministic
// ingestion pass (serial batched appends with fsync off, replayed back).
// Besides the usual latency histograms it exports exact work counters —
//
//	bench_node_accesses_total{method="..."}
//	bench_tia_reads_total{method="..."}
//	bench_results_total{method="..."}
//	bench_ingest_{appends,records,replayed}_total
//
// which are machine-independent (they count index work, not time), so two
// BENCH_smoke.json snapshots from different machines are comparable.
func smoke(r *run, env *dataEnv) error {
	methods, err := env.buildAll(defaultNodeSize, defaultEpoch, 0)
	if err != nil {
		return err
	}
	queries := env.Queries(r.Queries, defaultK, defaultAlpha, r.Seed+11)
	t := r.table(fmt.Sprintf("Smoke: regression probe (%s, scale %.2f, %d queries)", env.name, env.scale, len(queries)),
		"method", "results", "node accesses", "TIA reads", "CPU time (ms)", "p50 (ms)", "qps")
	for _, mt := range methods {
		m, err := r.measure(mt.name, mt.q, queries, nil)
		if err != nil {
			return err
		}
		r.count("bench_node_accesses_total", m.nodeAccesses(), "method", mt.name)
		r.count("bench_tia_reads_total", m.work.TIAAccesses, "method", mt.name)
		r.count("bench_results_total", m.results, "method", mt.name)
		// Aggregate throughput over the batch; benchdiff derives the same
		// count/sum ratio from the exported latency histogram.
		qps := 0.0
		if m.latency.Sum > 0 {
			qps = float64(m.latency.Count) / m.latency.Sum
		}
		t.add(mt.name, m.results, m.nodeAccesses(), m.work.TIAAccesses,
			m.meanMS(), f3(m.latency.P50*1000), fmt.Sprintf("%.0f", qps))
	}

	const records = 200
	appends, replayed, err := appendAndReplay(records, 4, 16)
	if err != nil {
		return err
	}
	r.count("bench_ingest_appends_total", int64(appends))
	r.count("bench_ingest_records_total", records)
	r.count("bench_ingest_replayed_total", int64(replayed))
	r.table("Smoke: WAL ingest probe (serial batched appends, replayed back)", "appends", "records", "replayed").
		add(appends, records, replayed)
	return nil
}
