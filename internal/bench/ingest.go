package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"tartree/internal/obs"
	"tartree/internal/wal"
)

// Ingestion experiment defaults. The slow-disk delay models a device where
// an fsync costs ~1ms (a SATA SSD with a volatile cache disabled is worse);
// against it the batching effect of group commit is measurable without the
// run taking minutes.
const (
	ingestRecords   = 512
	ingestSyncDelay = time.Millisecond
)

// ingestMode is one append workload: how many clients append how many
// check-ins per call, with or without fsync.
type ingestMode struct {
	name    string
	writers int  // concurrent clients appending
	batch   int  // check-ins per append call
	sync    bool // false: NoSync (durability off, upper bound)
}

var ingestModes = []ingestMode{
	{"fsync-per-append", 1, 1, true}, // naive floor: serial, one fsync each
	{"group-commit", 4, 1, true},
	{"group-commit", 16, 1, true},
	{"group-commit", 16, 8, true},
	{"batched-serial", 1, 8, true},
	{"nosync", 1, 1, false},
	{"nosync", 16, 8, false},
}

// ingestResult is what one append-then-replay pass did.
type ingestResult struct {
	records, appends, replayed int
	fsyncs                     int64
	elapsed                    time.Duration // of the append phase
}

// appendAndReplay appends records check-ins (POI ids cycling over pois)
// through a fresh write-ahead log in a temporary directory — mode.writers
// clients, mode.batch per call, every fsync costing ingestSyncDelay when
// mode.sync — then closes the log, reopens it and counts the records back:
// every acknowledged record must replay.
func appendAndReplay(mode ingestMode, records int, pois int64) (ingestResult, error) {
	var res ingestResult
	dir, err := os.MkdirTemp("", "tartree-ingest-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	var fs wal.FS
	if fs, err = wal.NewDirFS(dir); err != nil {
		return res, err
	}
	if mode.sync {
		fs = &wal.SlowFS{FS: fs, SyncDelay: ingestSyncDelay}
	}
	reg := obs.NewRegistry()
	log, err := wal.OpenLog(fs, wal.LogOptions{NoSync: !mode.sync, Metrics: wal.NewMetrics(reg)}, 0, nil)
	if err != nil {
		return res, err
	}

	perWriter := records / mode.writers
	res.records = mode.writers * perWriter
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, mode.writers) // one slot per writer: each sends at most once
	for w := 0; w < mode.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]wal.CheckIn, 0, mode.batch)
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				batch = append(batch, wal.CheckIn{POI: id % pois, At: id})
				if len(batch) == mode.batch || i == perWriter-1 {
					if _, err := log.Append(batch); err != nil {
						errs <- err
						return
					}
					batch = batch[:0]
				}
			}
		}(w)
		res.appends += (perWriter + mode.batch - 1) / mode.batch
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	close(errs)
	for err := range errs {
		return res, err
	}
	if err := log.Close(); err != nil {
		return res, err
	}
	res.fsyncs = reg.Counter("tartree_wal_fsyncs_total").Value()

	reopened, err := wal.OpenLog(fs, wal.LogOptions{NoSync: true}, 0,
		func(lsn uint64, c wal.CheckIn) error { res.replayed++; return nil })
	if err != nil {
		return res, err
	}
	if err := reopened.Close(); err != nil {
		return res, err
	}
	if res.replayed != res.records {
		return res, fmt.Errorf("%s: replayed %d of %d appended records", mode.name, res.replayed, res.records)
	}
	return res, nil
}

// ingest measures durable ingestion throughput through the write-ahead log
// on a simulated slow disk. The naive floor is one fsync per append from a
// single client; group commit amortizes the same fsync over every append
// that arrived while the previous one was in flight, so concurrent writers
// multiply throughput without weakening durability.
func ingest(r *run, _ *dataEnv) error {
	t := r.table(fmt.Sprintf("Ingestion: WAL throughput on a slow disk (%d check-ins, fsync = %v)", ingestRecords, ingestSyncDelay),
		"mode", "writers", "batch", "appends", "fsyncs", "elapsed (ms)", "records/s", "speedup")
	var naive float64 // records/s of the first (naive) mode
	for i, mode := range ingestModes {
		res, err := appendAndReplay(mode, ingestRecords, ingestRecords)
		if err != nil {
			return err
		}
		rps := float64(res.records) / res.elapsed.Seconds()
		if i == 0 {
			naive = rps
		}
		t.add(mode.name, mode.writers, mode.batch, res.appends, res.fsyncs,
			f1(res.elapsed.Seconds()*1000), fmt.Sprintf("%.0f", rps), fmt.Sprintf("%.1f×", rps/naive))
	}
	return nil
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

	res, err := appendAndReplay(ingestMode{name: "smoke", writers: 1, batch: 4}, 200, 16)
	if err != nil {
		return err
	}
	r.count("bench_ingest_appends_total", int64(res.appends))
	r.count("bench_ingest_records_total", int64(res.records))
	r.count("bench_ingest_replayed_total", int64(res.replayed))
	r.table("Smoke: WAL ingest probe (serial batched appends, replayed back)", "appends", "records", "replayed").
		add(res.appends, res.records, res.replayed)
	return nil
}
