// Command tarserve builds a TAR-tree over a synthetic LBSN data set and
// serves kNNTA queries over HTTP, with the full observability surface:
//
//	GET  /v1/query?x=50&y=50&k=10&alpha=0.3[&days=128][&trace=1][&timeout_ms=500][&nocache=1]
//	POST /v1/ingest     durable live check-ins (requires -wal-dir)
//	GET  /v1/traces     recent finished traces and the slowest query traces
//	                    (?id=<trace-id> one trace, ?format=chrome a flamegraph)
//	GET  /metrics       Prometheus text exposition of the obs registry
//	GET  /healthz       readiness: 200 "ready" once the index is recovered,
//	                    503 "recovering" while it is still loading
//	GET  /debug/pprof/  standard Go profiling endpoints
//
// METRICS.md catalogs every /metrics series with the roles that export it
// and its reader: a test, the end-to-end benchmark, or an operator question
// in the README. TestMetricsCatalog checks every role's page against it.
//
// timeout_ms maps to a context deadline: a query that exceeds it — queued
// for an execution slot or mid-search — stops promptly and answers 504.
//
// Queries are served through a shared epoch-versioned cache (-cache-bytes,
// default 64 MiB, 0 disables) that memoizes whole result sets. An epoch flush
// (when ingested check-ins become visible) invalidates it, so cached answers
// are always identical to uncached ones, while an ingest alone leaves it warm.
// Hit/miss/eviction/bytes gauges are exported as tartree_aggcache_* on
// /metrics, and every query response reports its own cache_hits/cache_misses.
//
// The index lives in memory: every entry's TIA is a sorted record slice, a
// probe reads no page, and so stats.tia_accesses, stats.tia_physical and
// the tartree_pagestore_* / tartree_tia_page_reads_total series read 0
// while stats.scored and tartree_tia_probes_total{backend="mem"} count the
// probes. Page accesses — the paper's cost unit — are what cmd/tarbench
// measures, on paged B+-tree TIAs.
//
// The index is built as the data set is generated (lbsn.Spec.Build): each
// POI is indexed, or dropped below the effectiveness threshold, as it is
// drawn, so the process never holds the whole -dataset/-scale data set and
// its memory is the index's. The listener comes up first and /healthz
// answers "recovering" until the index is ready. -scale outside (0, 1] is
// refused.
//
// With -wal-dir the server ingests live check-ins durably: POST /v1/ingest
// appends to a group-committed write-ahead log and answers 200 only after
// the batch is fsynced and applied. On startup the index is recovered from
// the newest checkpoint in the WAL directory plus a log replay (the data set
// is generated only when the directory holds no checkpoint); the listener
// comes up first so /healthz reports "recovering" until the replay is done.
// Background loops fold elapsed epochs (-flush-every) and write checkpoints
// (-checkpoint-every) that let the log drop obsolete segments.
//
//	POST /v1/ingest {"poi": 17, "ts": 1234567890}
//	POST /v1/ingest {"checkins": [{"poi": 17, "ts": 100}, {"poi": 9, "ts": 105}]}
//
// Access logs go to stderr (slog) for failed (status ≥ 400) requests and for
// requests that took -slow-query or longer. Every /v1/* request is a span
// tree in the -traces ring, in every role; slow queries are also logged at
// warn level.
//
// Queries execute concurrently, bounded by the -max-concurrent admission
// semaphore (default GOMAXPROCS); requests beyond the limit queue and are
// visible in the tarserve_query_queue_depth gauge.
//
// # Replication
//
// With -repl-token a durable server becomes a replication leader: it
// exposes GET /v1/repl/snapshot (tree snapshot at the applied LSN) and
// GET /v1/repl/wal?from=<lsn> (CRC32C frame stream with long-poll tail),
// both requiring the token as an Authorization bearer. A follower runs
// with -follow <leader-url> -repl-token <secret> -wal-dir <dir>: it
// bootstraps from the leader's snapshot, tails the WAL through the same
// apply path local ingest uses (keeping its own durable WAL copy, so a
// restart recovers locally and resumes), answers queries, and rejects
// POST /v1/ingest with 403 plus a Location header naming the leader.
// Read-your-writes across the pair: echo the leader's ingest ack LSN as
// /v1/query?min_lsn=<lsn> on the follower — the query waits until that
// LSN is applied (504 past the deadline). /healthz reports the role and
// replication lag on both sides; the follower additionally exports
// tartree_repl_{applied_lsn,lag_records,lag_seconds}.
//
// # Sharding
//
// A fleet of servers can split the POI set spatially: datagen -shard-map
// writes an STR-style partition map, each shard runs with
// -shard-of i/N -shard-map map.json (indexing only its slice, over the
// full world so scores stay bit-identical), and one coordinator runs with
// -coordinator url0,url1,... and no local index. The coordinator serves
// /v1/query by scatter-gather: one stateless query per shard, carrying the
// gmax of its cached merge of the shards' global TIAs (refetched after a
// shard's 409 says its own moved); each shard answers its top k plus the
// ties at its kth score, and the coordinator merges by (score, id). Answers
// are exactly identical to single-node execution; a failed shard turns the
// whole query into a 503 naming the shard, never a silently partial top-k;
// so does a shard that has not answered one call within shardCallTimeout.
// /healthz reports the role and the shard's key range; tartree_shard_*
// metrics cover fan-out, global-TIA fetches, candidates and stragglers.
//
// On SIGINT/SIGTERM the server drains in-flight requests, stops the
// replication tail and background loops, flushes observed epochs and
// closes the WAL cleanly before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/repl"
	"tartree/internal/shard"
	"tartree/internal/wal"
)

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

// shardCallTimeout bounds one coordinator → shard call, so a shard that
// accepts the connection and never answers fails the query with the 503
// naming it instead of hanging it when the caller set no timeout_ms.
const shardCallTimeout = 10 * time.Second

// newShardClient is the coordinator's shard client. A query holds one
// connection per shard, so each shard gets, and keeps idle, one connection
// per query admission runs at once (http.DefaultTransport keeps two idle,
// redialling more).
func newShardClient(maxConcurrent int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost = maxConcurrent, maxConcurrent
	tr.MaxIdleConns = 0 // no total cap: the per-shard one bounds it
	return &http.Client{Timeout: shardCallTimeout, Transport: tr}
}

// The listener's connection limits: a client has readHeaderTimeout to send
// its request headers, and an idle keep-alive connection is closed after
// idleTimeout. There is deliberately no ReadTimeout or WriteTimeout —
// /v1/repl/wal is a long-lived stream. Variables only so a test can scale
// them down.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// config is the command line as main parsed and checked it: what start
// needs to bring a role up. TestMetricsCatalog starts every role from one.
type config struct {
	spec     lbsn.Spec
	scale    float64
	grouping core.Grouping
	// cacheBytes sizes the shared result cache (0 disables it).
	cacheBytes int64
	// Durable mode (walDir set).
	walDir           string
	ckEvery, flEvery time.Duration
	replay           string
	noSync           bool
	// Replication: follow is the leader's base URL.
	follow, replTok string
	// Sharding: shardMap is set for a shard, shards for a coordinator.
	shardIdx, shardN int
	shardMap         *shard.Map
	shards           []string
}

func main() {
	var (
		cfg     config
		addr    = flag.String("addr", ":8080", "listen address")
		name    = flag.String("dataset", "GS", "data set name (NYC, LA, GW, GS)")
		group   = flag.String("grouping", "tar", "entry grouping: tar, spa, agg")
		logJSON = flag.Bool("logjson", false, "emit access logs as JSON instead of text")
		nTraces = flag.Int("traces", 64, "finished traces kept for /v1/traces: this many recent ones and this many slowest queries (0 turns request tracing off)")
		slowQ   = flag.Duration("slow-query", 250*time.Millisecond, "log requests that took this long or longer (queries also at warn level, with their trace)")
		maxConc = flag.Int("max-concurrent", 0, "admission limit: queries executing at once (0 = GOMAXPROCS); excess requests queue")
		trcOut  = flag.String("trace-out", "", "append finished span traces to this file as Chrome trace_event JSON")
		shardOf = flag.String("shard-of", "", `serve spatial shard "i/N" of the data set (requires -shard-map); only POIs the map assigns to shard i are indexed`)
		mapFile = flag.String("shard-map", "", "shard map JSON file (written by datagen -shard-map); required with -shard-of")
		coord   = flag.String("coordinator", "", "comma-separated shard base URLs: run /v1/query as a scatter-gather coordinator over them (no local index)")
	)
	flag.Float64Var(&cfg.scale, "scale", 0.1, "data set scale in (0,1]")
	flag.StringVar(&cfg.walDir, "wal-dir", "", "enable durable ingestion: write-ahead log and checkpoints live here")
	flag.DurationVar(&cfg.ckEvery, "checkpoint-every", 5*time.Minute, "background checkpoint interval (requires -wal-dir)")
	flag.DurationVar(&cfg.flEvery, "flush-every", 30*time.Second, "background epoch-flush interval (requires -wal-dir)")
	flag.StringVar(&cfg.replay, "replay", "", "seed a fresh WAL with this check-in stream (written by datagen -checkins) through the ingest path; skipped if the WAL already holds data")
	flag.BoolVar(&cfg.noSync, "wal-nosync", false, "skip WAL fsyncs (throughput experiments only: crash durability is lost)")
	flag.Int64Var(&cfg.cacheBytes, "cache-bytes", 64<<20, "shared result cache size in bytes (0 disables)")
	flag.StringVar(&cfg.follow, "follow", "", "run as a replication follower of this leader base URL (requires -wal-dir and -repl-token)")
	flag.StringVar(&cfg.replTok, "repl-token", "", "shared replication secret: enables the leader's /v1/repl endpoints, authenticates a follower; empty disables replication")
	flag.Parse()
	if *shardOf != "" {
		switch {
		case *coord != "":
			fatal(errors.New("-shard-of and -coordinator are mutually exclusive roles"))
		case cfg.follow != "":
			fatal(errors.New("-shard-of cannot be combined with -follow: a shard owns its own slice of the base data"))
		case cfg.replTok != "":
			fatal(errors.New("-shard-of cannot be combined with -repl-token"))
		case *mapFile == "":
			fatal(errors.New("-shard-of requires -shard-map"))
		}
		if n, err := fmt.Sscanf(*shardOf, "%d/%d", &cfg.shardIdx, &cfg.shardN); err != nil || n != 2 {
			fatal(fmt.Errorf("-shard-of must look like \"0/4\", got %q", *shardOf))
		}
		if cfg.shardN < 1 || cfg.shardIdx < 0 || cfg.shardIdx >= cfg.shardN {
			fatal(fmt.Errorf("-shard-of index %d out of range for %d shards", cfg.shardIdx, cfg.shardN))
		}
		m, err := shard.LoadMap(*mapFile)
		if err != nil {
			fatal(err)
		}
		if m.N != cfg.shardN {
			fatal(fmt.Errorf("-shard-of names %d shards but map %s holds %d", cfg.shardN, *mapFile, m.N))
		}
		cfg.shardMap = m
	}
	if *coord != "" {
		switch {
		case cfg.follow != "":
			fatal(errors.New("-coordinator cannot be combined with -follow"))
		case cfg.replTok != "":
			fatal(errors.New("-coordinator cannot be combined with -repl-token: the coordinator holds no WAL to replicate"))
		case cfg.walDir != "":
			fatal(errors.New("-coordinator cannot be combined with -wal-dir: ingest goes to the shards, not the coordinator"))
		}
		cfg.shards = strings.Split(*coord, ",")
		for i := range cfg.shards {
			cfg.shards[i] = strings.TrimRight(strings.TrimSpace(cfg.shards[i]), "/")
			if cfg.shards[i] == "" {
				fatal(fmt.Errorf("-coordinator has an empty shard URL in %q", *coord))
			}
		}
	}
	if cfg.follow != "" {
		switch {
		case cfg.walDir == "":
			fatal(errors.New("-follow requires -wal-dir for the follower's own WAL copy"))
		case cfg.replTok == "":
			fatal(errors.New("-follow requires -repl-token"))
		case cfg.replay != "":
			fatal(errors.New("-replay cannot be combined with -follow: a follower's history comes from the leader"))
		}
		cfg.follow = strings.TrimRight(cfg.follow, "/")
	}

	// Shutdown: first signal starts the drain, a second one kills the
	// process the default way (stop() reinstalls default handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(h)

	switch *group {
	case "tar":
		cfg.grouping = core.TAR3D
	case "spa":
		cfg.grouping = core.IndSpa
	case "agg":
		cfg.grouping = core.IndAgg
	default:
		fatal(fmt.Errorf("unknown grouping %q", *group))
	}

	var err error
	if cfg.spec, err = lbsn.SpecFor(*name, cfg.scale); err != nil {
		fatal(err)
	}
	if m := cfg.shardMap; m != nil && cfg.spec.World() != m.World {
		fatal(fmt.Errorf("shard map %s was built for world %v, data set has %v — regenerate it with datagen -shard-map at the same -dataset/-scale", *mapFile, m.World, cfg.spec.World()))
	}

	var ring *obs.TraceRing
	if *nTraces > 0 {
		ring = obs.NewTraceRing(*nTraces)
		ring.SetSlowLog(log, *slowQ)
	}
	// The listener comes up before the index: /healthz answers 503
	// "recovering" (and /metrics works) until start finishes.
	srv := newPendingServer(newRegistry(), ring, log, *maxConc)
	srv.slowQuery = *slowQ
	if *trcOut != "" {
		f, err := os.OpenFile(*trcOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		srv.traceOut, srv.spanSink = obs.NewFileTraceSink(f), srv
		log.Info("span traces exported", "file", *trcOut)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Info("listening", "addr", ln.Addr().String(), "max_concurrent", cap(srv.admission))
	httpServer := newHTTPServer(srv)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	closeRole, err := start(ctx, &cfg, srv, log, stop)
	if err != nil {
		fatal(err)
	}
	// Block until a shutdown signal (or listener failure), drain in-flight
	// requests, then close whatever durable state the role holds.
	select {
	case <-ctx.Done():
		log.Info("shutdown signal received, draining", "timeout", drainTimeout)
	case err := <-serveErr:
		fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		log.Warn("drain incomplete", "err", err)
	}
	replErr := closeRole()
	log.Info("shutdown complete")
	if replErr != nil {
		os.Exit(1)
	}
}

// newRegistry is the registry every role exports on /metrics: the Go
// runtime's series, plus what start registers for the role.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	return reg
}

// start brings up the role cfg names behind srv and flips srv to ready: it
// builds or recovers the index (a coordinator has none), enables the role's
// endpoints and starts the background loops, which run until ctx ends. A
// follower whose replication tail fails while ctx is live calls fail, so
// the process drains instead of serving ever-staler data. Call the returned
// function once ctx has ended: it waits for the tail, flushes observed epochs
// and closes the WAL, and returns the tail's failure, if any.
func start(ctx context.Context, cfg *config, srv *server, log *slog.Logger, fail func()) (func() error, error) {
	spec, reg := cfg.spec, srv.reg
	none := func() error { return nil }
	// Coordinator: no local index at all. /v1/query scatter-gathers across
	// the shard fleet; everything else (metrics, traces, healthz) works as
	// usual over the nil tree.
	if cfg.shards != nil {
		srv.setCoordinator(&shard.Coordinator{
			Shards:  cfg.shards,
			Client:  newShardClient(cap(srv.admission)),
			Metrics: shard.NewMetrics(reg),
		}, cfg.shardMap)
		srv.finishStartup(nil, nil, spec.Start, spec.End)
		log.Info("coordinator ready", "shards", len(cfg.shards))
		return none, nil
	}
	// A shard indexes only the POIs the map assigns to it; Locate is the
	// membership oracle so every process sharing the map agrees exactly.
	var keep func(p core.POI) bool
	enableShard := func(data shard.Viewer) {}
	if m := cfg.shardMap; m != nil {
		keep = func(p core.POI) bool { return m.Locate(p.X, p.Y) == cfg.shardIdx }
		enableShard = func(data shard.Viewer) {
			srv.enableShard(&shard.Server{
				Data:    data,
				Index:   cfg.shardIdx,
				N:       cfg.shardN,
				Region:  m.Region(cfg.shardIdx),
				Metrics: shard.NewMetrics(reg),
			}, m)
			log.Info("shard enabled", "shard", cfg.shardIdx, "of", cfg.shardN)
		}
	}
	// A base index is built straight from the spec: each POI is indexed or
	// dropped as it is drawn, so the data set is never held in memory.
	// Neither a follower nor a coordinator builds one.
	opts := lbsn.BuildOptions{Grouping: cfg.grouping, Metrics: reg, Cache: aggcache.New(cfg.cacheBytes), Keep: keep}

	buildStart := time.Now()
	if cfg.walDir == "" {
		log.Info("building index", "dataset", spec.Name, "scale", cfg.scale)
		tr, err := spec.Build(opts)
		if err != nil {
			return nil, err
		}
		tr.Freeze()
		enableShard(shard.TreeViewer{Tree: tr})
		logIndex(log, tr, buildStart)
		srv.finishStartup(tr, nil, spec.Start, spec.End)
		return none, nil
	}

	// Durable mode: recover from the newest checkpoint plus a WAL replay.
	// The base tree — used only when the directory holds no checkpoint —
	// bulk-loads the historical data set, or starts empty when a -replay
	// stream will provide the history through the ingest path (its POIs are
	// selected as they are drawn, like the bulk load's). A follower
	// never builds one: Bootstrap below installs the leader's snapshot as
	// the local checkpoint before the store opens.
	fs, err := wal.NewDirFS(cfg.walDir)
	if err != nil {
		return nil, err
	}
	var (
		wm    *repl.Watermark
		rm    *repl.Metrics
		fopts repl.FollowerOptions
	)
	if cfg.follow != "" {
		wm = repl.NewWatermark()
		rm = repl.NewMetrics(reg)
		fopts = repl.FollowerOptions{
			LeaderURL: cfg.follow,
			Token:     cfg.replTok,
			Watermark: wm,
			Metrics:   rm,
			Logf: func(format string, args ...any) {
				log.Warn(fmt.Sprintf(format, args...))
			},
		}
		lsn, downloaded, err := repl.Bootstrap(ctx, fs, fopts)
		if err != nil {
			return nil, fmt.Errorf("bootstrapping from %s: %w", fopts.LeaderURL, err)
		}
		if downloaded {
			log.Info("bootstrapped from leader snapshot", "leader", fopts.LeaderURL, "lsn", lsn)
		} else {
			log.Info("local WAL state found, skipping snapshot bootstrap", "dir", cfg.walDir)
		}
	}
	base := func() (*core.Tree, error) {
		if cfg.follow != "" {
			return nil, errors.New("follower WAL directory holds no snapshot; bootstrap should have installed one")
		}
		log.Info("building index", "dataset", spec.Name, "scale", cfg.scale)
		if cfg.replay != "" {
			return spec.BuildEmpty(opts)
		}
		return spec.Build(opts)
	}
	store, err := wal.OpenStore(fs, base, wal.StoreOptions{
		Metrics:   reg,
		NoSync:    cfg.noSync,
		Cache:     opts.Cache,
		TraceSink: srv.spanSink,
	})
	if err != nil {
		return nil, err
	}
	rec := store.Recovery()
	log.Info("wal recovered",
		"dir", cfg.walDir,
		"checkpoint_loaded", rec.CheckpointLoaded,
		"checkpoint_lsn", rec.CheckpointLSN,
		"replayed", rec.Replay.Records,
		"truncated_bytes", rec.Replay.TruncatedBytes,
		"durable_lsn", store.DurableLSN(),
	)

	if cfg.replay != "" {
		if rec.CheckpointLoaded || store.DurableLSN() > 0 {
			log.Info("replay skipped: WAL already holds data", "file", cfg.replay)
		} else if err := seedFromStream(store, cfg.replay, log); err != nil {
			return nil, err
		}
	}

	// Pre-warm the compiled layout so the first query does not pay for it
	// (a no-op after a checkpoint, which restores it directly).
	store.Freeze()
	switch {
	case cfg.follow != "":
		srv.setFollower(fopts.LeaderURL, wm, rm)
		rm.ObserveApplied(store.AppliedLSN(), store.AppliedLSN())
	case cfg.replTok != "":
		srv.enableReplLeader(&repl.Leader{Store: store, Token: cfg.replTok, Metrics: repl.NewMetrics(reg)})
		log.Info("replication leader enabled", "endpoints", "/v1/repl/snapshot /v1/repl/wal")
	}
	// The store is the shard's Viewer: each shard query runs under one hold
	// of its read lock, so live ingest never splits a search.
	enableShard(store)
	logIndex(log, store.Tree(), buildStart)
	srv.finishStartup(store.Tree(), store, spec.Start, spec.End)

	if cfg.flEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.flEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := store.FlushObserved(); err != nil && !errors.Is(err, wal.ErrClosed) {
						log.Error("epoch flush failed", "err", err)
					}
				}
			}
		}()
	}
	if cfg.ckEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.ckEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					lsn, err := store.Checkpoint()
					if err != nil {
						if !errors.Is(err, wal.ErrClosed) {
							log.Error("checkpoint failed", "err", err)
						}
						continue
					}
					log.Info("checkpoint written", "lsn", lsn)
				}
			}
		}()
	}

	// The follower's tail loop runs until ctx ends or a fatal replication
	// error (leader truncated our LSN, bad token, divergence) — the latter
	// calls fail, which drains the process and exits nonzero rather than
	// serving ever-staler data silently.
	var replDone chan error
	if cfg.follow != "" {
		replDone = make(chan error, 1)
		go func() {
			err := (&repl.Follower{Store: store, Opts: fopts}).Run(ctx)
			replDone <- err
			if err != nil && ctx.Err() == nil {
				log.Error("replication tail failed, shutting down", "err", err)
				fail()
			}
		}()
	}

	return func() error {
		var replErr error
		if replDone != nil {
			// The ended context already stopped the tail; wait for the last
			// apply to finish before closing the store under it.
			if err := <-replDone; err != nil && !errors.Is(err, context.Canceled) {
				replErr = err
			}
		}
		if err := store.FlushObserved(); err != nil {
			log.Error("final epoch flush failed", "err", err)
		}
		if err := store.Close(); err != nil {
			log.Error("closing store", "err", err)
		}
		return replErr
	}, nil
}

// seedFromStream feeds a datagen -checkins stream through the durable ingest
// path in batches, skipping check-ins for POIs the index does not carry
// (below the effectiveness threshold).
func seedFromStream(store *wal.Store, path string, log *slog.Logger) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	cs, err := lbsn.ReadCheckInStream(f)
	f.Close()
	if err != nil {
		return err
	}
	begin := time.Now()
	tree := store.Tree()
	batch := make([]wal.CheckIn, 0, 256)
	var applied, skipped int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := store.Ingest(batch); err != nil {
			return err
		}
		applied += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	for _, c := range cs {
		if _, ok := tree.Lookup(c.POI); !ok {
			skipped++
			continue
		}
		batch = append(batch, wal.CheckIn{POI: c.POI, At: c.At})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	log.Info("replayed check-in stream through ingest path",
		"file", path,
		"applied", applied,
		"skipped", skipped,
		"elapsed", time.Since(begin).Round(time.Millisecond),
	)
	return nil
}

func logIndex(log *slog.Logger, tr *core.Tree, buildStart time.Time) {
	leaves, internals := tr.NodeCount()
	log.Info("index ready",
		"grouping", tr.Grouping().String(),
		"pois", tr.Len(),
		"leaves", leaves,
		"internals", internals,
		"height", tr.Height(),
		"elapsed", time.Since(buildStart).Round(time.Millisecond),
	)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tarserve: %v\n", err)
	os.Exit(1)
}
