package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/repl"
	"tartree/internal/wal"
)

// Replication experiment defaults. The corpus is split so the snapshot
// bootstrap and the streaming tail each carry a substantial share, and the
// check-ins land inside the query window so the convergence gate actually
// depends on every replicated record.
const (
	replBootRecords = 400
	replTailRecords = 600
	replBenchToken  = "bench-repl-token"
)

// replExp measures the replication pipeline end to end over loopback HTTP:
// a leader ingests the first part of a deterministic check-in stream, a
// follower bootstraps from its snapshot, the leader ingests the rest, and
// the follower tails it through a single WAL stream. The convergence gate
// rides along: after the tail, the follower must hold the leader's durable
// LSN exactly and answer the full query battery with the leader's (POI,
// aggregate) sets.
//
// The exported counters depend only on the workload shape — record counts,
// LSNs, query work — never on timing, so benchdiff can gate on them:
//
//	bench_repl_bootstrap_lsn_total
//	bench_repl_tail_records_total
//	bench_repl_records_applied_total
//	bench_repl_stream_requests_total
//	bench_repl_queries_total
//	bench_repl_follower_node_accesses_total
func replExp(r *run, env *dataEnv) error {
	root, err := os.MkdirTemp("", "tartree-repl-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	lfs, err := wal.NewDirFS(mustMkdir(root, "leader"))
	if err != nil {
		return err
	}
	lstore, err := wal.OpenStore(lfs, func() (*core.Tree, error) {
		return env.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: defaultNodeSize})
	}, wal.StoreOptions{NoSync: true})
	if err != nil {
		return err
	}
	defer lstore.Close()

	// Deterministic live stream over indexed POIs, timestamps ascending to
	// the data set's end so the replicated records sit inside the query
	// window the battery below covers.
	var pois []int64
	for _, p := range env.POIs {
		if _, ok := lstore.Tree().Lookup(p.ID); ok {
			pois = append(pois, p.ID)
		}
	}
	if len(pois) == 0 {
		return fmt.Errorf("no indexed POIs at scale %.2f", env.scale)
	}
	total := replBootRecords + replTailRecords
	mk := func(i int) wal.CheckIn {
		return wal.CheckIn{POI: pois[i%len(pois)], At: env.Spec.End - int64(total) + int64(i)}
	}
	corpus := make([]wal.CheckIn, total)
	for i := range corpus {
		corpus[i] = mk(i)
	}
	if _, err := lstore.Ingest(corpus[:replBootRecords]); err != nil {
		return err
	}

	lreg := obs.NewRegistry()
	lm := repl.NewMetrics(lreg)
	ld := &repl.Leader{
		Store:   lstore,
		Token:   replBenchToken,
		Metrics: lm,
		// One connection carries the whole tail; the idle poll outlives the
		// run so the stream-request count stays deterministic.
		PollTimeout: time.Hour,
	}
	mux := http.NewServeMux()
	ld.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Phase 1: snapshot bootstrap into an empty follower directory.
	ffs, err := wal.NewDirFS(mustMkdir(root, "follower"))
	if err != nil {
		return err
	}
	freg := obs.NewRegistry()
	fm := repl.NewMetrics(freg)
	wm := repl.NewWatermark()
	fopts := repl.FollowerOptions{
		LeaderURL: srv.URL,
		Token:     replBenchToken,
		Metrics:   fm,
		Watermark: wm,
	}
	bootStart := time.Now()
	bootLSN, downloaded, err := repl.Bootstrap(context.Background(), ffs, fopts)
	if err != nil {
		return err
	}
	bootElapsed := time.Since(bootStart)
	if !downloaded || bootLSN != replBootRecords {
		return fmt.Errorf("bootstrap lsn=%d downloaded=%v, want %d/true", bootLSN, downloaded, replBootRecords)
	}
	fstore, err := wal.OpenStore(ffs, func() (*core.Tree, error) {
		return nil, fmt.Errorf("follower base builder must not run")
	}, wal.StoreOptions{NoSync: true, Factory: paperTIA(defaultNodeSize)}) // as dataEnv.Build
	if err != nil {
		return err
	}
	defer fstore.Close()
	blob, _, err := lstore.EncodeSnapshot()
	if err != nil {
		return err
	}

	// Phase 2: the leader ingests the rest; the follower tails it all over
	// one stream and is cancelled once the watermark reports convergence.
	if _, err := lstore.Ingest(corpus[replBootRecords:]); err != nil {
		return err
	}
	f := &repl.Follower{Store: fstore, Opts: fopts}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	tailStart := time.Now()
	go func() { done <- f.Run(runCtx) }()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), time.Minute)
	werr := wm.Wait(waitCtx, uint64(total))
	waitCancel()
	tailElapsed := time.Since(tailStart)
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("follower run: %w", err)
	}
	if werr != nil {
		return fmt.Errorf("follower never reached LSN %d (applied %d)", total, fstore.AppliedLSN())
	}

	// Convergence gate: exact LSN identity and answer-identical queries.
	if got, want := fstore.AppliedLSN(), lstore.DurableLSN(); got != want {
		return fmt.Errorf("follower applied %d, leader durable %d", got, want)
	}
	horizon := env.Spec.End + 1
	if err := lstore.FlushEpochs(horizon); err != nil {
		return err
	}
	if err := fstore.FlushEpochs(horizon); err != nil {
		return err
	}
	queries := env.Queries(r.Queries, defaultK, defaultAlpha, r.Seed+41)
	leader, err := r.measure("", lstore, queries, nil)
	if err != nil {
		return err
	}
	follower, err := r.measure("", fstore, queries, nil)
	if err != nil {
		return err
	}
	if err := sameBatch(asSet, "follower vs leader", leader, follower); err != nil {
		return err
	}

	r.count("bench_repl_bootstrap_lsn_total", int64(bootLSN))
	r.count("bench_repl_tail_records_total", replTailRecords)
	r.count("bench_repl_records_applied_total", int64(fm.AppliedLSN()-bootLSN))
	r.count("bench_repl_stream_requests_total", lm.StreamRequests.Value())
	r.count("bench_repl_queries_total", int64(len(queries)))
	r.count("bench_repl_follower_node_accesses_total", follower.nodeAccesses())

	t := r.table(fmt.Sprintf("Replication: snapshot bootstrap + WAL tail over loopback HTTP (%s ×%.2f, %d+%d records)",
		env.name, env.scale, replBootRecords, replTailRecords),
		"phase", "records", "snapshot KB", "streams", "elapsed (ms)", "records/s")
	t.add("bootstrap", bootLSN, f1(float64(len(blob))/1024), 1, f1(bootElapsed.Seconds()*1000), "-")
	t.add("tail", replTailRecords, "-", lm.StreamRequests.Value(), f1(tailElapsed.Seconds()*1000),
		fmt.Sprintf("%.0f", replTailRecords/tailElapsed.Seconds()))
	t.add("converged", fstore.AppliedLSN(), "-", "-", "-", fmt.Sprintf("%d queries agree", len(queries)))
	return nil
}

// mustMkdir creates a named subdirectory under root; failures surface later
// as FS-open errors, which keeps the call sites linear.
func mustMkdir(root, name string) string {
	dir := root + string(os.PathSeparator) + name
	os.Mkdir(dir, 0o755)
	return dir
}
