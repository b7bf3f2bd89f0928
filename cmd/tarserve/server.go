package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tartree/internal/core"
	"tartree/internal/httpapi"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/planner"
	"tartree/internal/repl"
	"tartree/internal/shard"
	"tartree/internal/tia"
	"tartree/internal/wal"
)

// server answers kNNTA queries over HTTP and exposes the observability
// surface: /metrics (Prometheus text), /v1/traces, /debug/pprof, /healthz.
// With a WAL store attached it also accepts durable live check-ins on POST
// /v1/ingest.
//
// The server can start before the index exists: newPendingServer brings the
// listener up in a "recovering" state where /healthz answers 503 and query
// and ingest traffic is refused, and finishStartup flips it to ready once
// recovery (checkpoint load + WAL replay) completes. tree, store, dataStart
// and dataEnd are written before the ready flag is set and never after, so
// handlers that observe ready==true see them initialized.
type server struct {
	tree  *core.Tree // nil until finishStartup
	store *wal.Store // nil: ingestion disabled, queries go straight to tree
	// planner is the estimate-only optimizer behind ?explain=1: it supplies
	// the Section-6 plan the explain object reports and feeds the
	// tartree_planner_* calibration metrics. The server always executes the
	// index — the plan is advisory, so a stale seqscan can never be chosen
	// under live ingestion.
	planner *planner.Planner
	ready   atomic.Bool
	reg     *obs.Registry
	log     *slog.Logger
	start   time.Time
	// span of the indexed data, the default query interval
	dataStart, dataEnd int64

	// Queries run concurrently: the search path is read-only over the
	// R-tree, TIA buffers synchronize page access internally, and I/O
	// accounting is query-local, so no server-side mutex is needed.
	// admission is a counting semaphore bounding how many queries execute
	// at once (-max-concurrent); excess requests wait their turn and show
	// up in the queue-depth gauge.
	admission chan struct{}
	inflight  atomic.Int64
	queued    atomic.Int64

	requests *obs.Counter
	mux      *http.ServeMux

	// Tracing: every /v1/* request gets a span tree rooted at the route,
	// joined to the client's W3C traceparent when one is sent. Finished
	// traces — the WAL's batch/flush/checkpoint traces too — go to spanSink,
	// which is the server itself (TraceFinished) once it has somewhere to
	// keep them: the traces ring behind /v1/traces (nil with -traces 0) or
	// the -trace-out file. A nil spanSink turns request tracing off.
	traces   *obs.TraceRing
	traceOut *obs.FileTraceSink
	spanSink obs.TraceSink

	// slowQuery is the -slow-query threshold: a request that took this long
	// or longer gets an access line even when it succeeded.
	slowQuery time.Duration

	// Replication surface. role is "standalone" unless main configures a
	// -repl-token ("leader") or -follow ("follower"); it and leaderURL are
	// written before the ready flag like the other startup fields.
	// replLeader is atomic because the /v1/repl routes are mounted at
	// construction and must answer 403 until (and unless) the leader is
	// enabled. watermark is the applied-LSN fence behind ?min_lsn=, set for
	// every store-backed server: the leader advances it on each ingest ack,
	// a follower on each replicated apply, so read-your-writes works
	// identically on both roles.
	role        string
	leaderURL   string // follower only: where rejected writes are redirected
	replLeader  atomic.Pointer[repl.Leader]
	watermark   *repl.Watermark
	replMetrics *repl.Metrics

	// Sharding surface. A shard serves the /v1/shard routes through
	// shardSrv (mounted at construction, 403 until enableShard — the repl
	// pattern); a coordinator answers /v1/query through coord with tree
	// and store nil. shardMap is reported by healthz on both roles.
	coord    *shard.Coordinator
	shardSrv atomic.Pointer[shard.Server]
	shardMap *shard.Map
}

// newServer builds a server that is ready immediately: the tree is already
// built and there is no WAL store, so ingestion is disabled.
func newServer(tree *core.Tree, reg *obs.Registry, traces *obs.TraceRing, log *slog.Logger, dataStart, dataEnd int64, maxConcurrent int) *server {
	s := newPendingServer(reg, traces, log, maxConcurrent)
	s.finishStartup(tree, nil, dataStart, dataEnd)
	return s
}

// newPendingServer builds a server in the recovering state: /healthz answers
// 503 and /v1/query and /v1/ingest are refused until finishStartup. /metrics,
// /v1/traces and /debug/pprof work throughout, so recovery is observable.
func newPendingServer(reg *obs.Registry, traces *obs.TraceRing, log *slog.Logger, maxConcurrent int) *server {
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	s := &server{
		reg:       reg,
		traces:    traces,
		log:       log,
		start:     time.Now(),
		admission: make(chan struct{}, maxConcurrent),
		requests:  reg.Counter("tarserve_http_requests_total"),
		mux:       http.NewServeMux(),
	}
	if traces != nil {
		s.spanSink = s
	}
	reg.GaugeFunc("tarserve_max_concurrent_queries", func() float64 { return float64(cap(s.admission)) })
	reg.GaugeFunc("tarserve_inflight_queries", func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("tarserve_query_queue_depth", func() float64 { return float64(s.queued.Load()) })
	reg.GaugeFunc("tarserve_ready", func() float64 {
		if s.ready.Load() {
			return 1
		}
		return 0
	})

	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The replication endpoints are mounted unconditionally and answer 403
	// until enableReplLeader installs a leader, so the route set never
	// mutates under a live listener.
	s.mux.HandleFunc("GET /v1/repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
	// The shard endpoints follow the same pattern: always mounted, 403
	// until enableShard installs the shard server.
	s.mux.HandleFunc("GET /v1/shard/gmax", s.handleShardGmax)
	s.mux.HandleFunc("POST /v1/shard/query", s.handleShardQuery)
	// Unknown /v1/* paths get the JSON error envelope instead of the
	// mux's plain-text 404 (registered routes win by specificity).
	s.mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteStatusError(w, http.StatusNotFound, "no such API route: "+r.URL.Path)
	})
	// pprof registers itself on http.DefaultServeMux; mount the handlers
	// explicitly so the server owns its mux.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// finishStartup installs the recovered tree (and WAL store, when ingestion
// is enabled) and flips the server to ready. Call exactly once.
func (s *server) finishStartup(tree *core.Tree, store *wal.Store, dataStart, dataEnd int64) {
	s.tree = tree
	s.store = store
	if tree != nil {
		s.planner = planner.NewEstimator(tree)
		s.planner.Instrument(s.reg)
	}
	s.dataStart, s.dataEnd = dataStart, dataEnd
	if store != nil {
		if s.watermark == nil {
			s.watermark = repl.NewWatermark()
		}
		// Recovery already applied everything durable; min_lsn waits below
		// that must not park.
		s.watermark.Advance(store.AppliedLSN())
	}
	s.ready.Store(true)
}

// enableReplLeader turns on the /v1/repl endpoints. Call before
// finishStartup so healthz readers never race the role fields.
func (s *server) enableReplLeader(ld *repl.Leader) {
	s.role = "leader"
	s.replMetrics = ld.Metrics
	s.replLeader.Store(ld)
}

// setFollower marks the server a read-only follower of leaderURL. Call
// before finishStartup.
func (s *server) setFollower(leaderURL string, wm *repl.Watermark, m *repl.Metrics) {
	s.role = "follower"
	s.leaderURL = leaderURL
	s.watermark = wm
	s.replMetrics = m
}

// enableShard turns on the /v1/shard endpoints. Call before finishStartup
// so healthz readers never race the role fields.
func (s *server) enableShard(sh *shard.Server, m *shard.Map) {
	s.role = "shard"
	s.shardMap = m
	s.shardSrv.Store(sh)
}

// setCoordinator routes /v1/query through the scatter-gather coordinator.
// Call before finishStartup; the server then runs with a nil tree.
func (s *server) setCoordinator(c *shard.Coordinator, m *shard.Map) {
	s.role = "coordinator"
	s.shardMap = m
	s.coord = c
}

func (s *server) roleName() string {
	if s.role == "" {
		return "standalone"
	}
	return s.role
}

var errReplDisabled = fmt.Errorf("replication disabled: start the leader with -repl-token")

func (s *server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	ld := s.replLeader.Load()
	if ld == nil || !s.ready.Load() {
		httpError(w, http.StatusForbidden, errReplDisabled)
		return
	}
	ld.ServeSnapshot(w, r)
}

func (s *server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	ld := s.replLeader.Load()
	if ld == nil || !s.ready.Load() {
		httpError(w, http.StatusForbidden, errReplDisabled)
		return
	}
	ld.ServeWAL(w, r)
}

var errShardDisabled = fmt.Errorf("sharding disabled: start this server with -shard-of")

// shardServer returns the shard server, or writes the 403 envelope and
// returns nil when this process is not a (ready) shard.
func (s *server) shardServer(w http.ResponseWriter) *shard.Server {
	sh := s.shardSrv.Load()
	if sh == nil || !s.ready.Load() {
		httpError(w, http.StatusForbidden, errShardDisabled)
		return nil
	}
	return sh
}

func (s *server) handleShardGmax(w http.ResponseWriter, r *http.Request) {
	if sh := s.shardServer(w); sh != nil {
		sh.HandleGmax(w, r)
	}
}

func (s *server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if sh := s.shardServer(w); sh != nil {
		sh.HandleQuery(w, r)
	}
}

// plan runs the Section-6 estimator for an explain request. With a WAL
// store attached the planner reads the tree's in-memory TIA records, so the
// estimate runs under the store's read lock like the queries themselves.
func (s *server) plan(q core.Query) (planner.Plan, error) {
	if s.store != nil {
		var pl planner.Plan
		var err error
		s.store.View(func(*core.Tree) { pl, err = s.planner.Plan(q) })
		return pl, err
	}
	return s.planner.Plan(q)
}

// statusWriter remembers the status code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers (the
// replication WAL tail) can push partial responses through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP wraps the mux with the error/slow access log, the request
// counter, and span tracing on /v1/* (joining the client's traceparent and
// emitting the server's own in the response).
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	s.requests.Inc()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var sp *obs.Span
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		var parent obs.SpanContext
		if tp := r.Header.Get("traceparent"); tp != "" {
			// A malformed header starts a fresh trace, as a missing one does.
			parent, _ = obs.ParseTraceparent(tp)
		}
		sp = obs.StartTrace(r.Method+" "+r.URL.Path, parent, s.spanSink)
		if sp != nil {
			// The response header must be set before the handler writes the
			// status line.
			w.Header().Set("traceparent", sp.Context().Traceparent())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
	}
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(begin)
	if sp != nil {
		sp.SetAttr("status", sw.status)
		sp.Finish()
	}
	// Access lines for failed and slow requests only: a line for every
	// request cost more server CPU than a result-cache hit (DESIGN §10).
	// A /healthz 503 is the readiness answer while the index builds, which
	// start-up probes poll for: it has not failed.
	failed := sw.status >= 400 && !(sw.status == http.StatusServiceUnavailable && r.URL.Path == "/healthz")
	if failed || elapsed >= s.slowQuery {
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration", elapsed,
			"remote", r.RemoteAddr,
		)
	}
}

// handleQuery answers
// GET /v1/query?x=..&y=..[&k=][&alpha=][&start=&end=|&days=][&trace=1][&timeout_ms=][&nocache=1][&explain=1].
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, errRecovering)
		return
	}
	q, po, err := s.parseQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts := core.QueryOpts{NoCache: po.nocache}
	var (
		exp     *core.Explain
		plan    planner.Plan
		planned bool
	)
	if po.explain {
		exp = core.NewExplain()
		opts.Explain = exp
		// A plan failure (degenerate tree, unfittable distribution) must not
		// fail the query: the explain then reports actuals without estimates.
		// A coordinator has no local tree and therefore no planner; its
		// explain reports the per-shard attribution instead.
		if s.planner != nil {
			if pl, perr := s.plan(q); perr == nil {
				plan, planned = pl, true
				exp.Plan = plan.Explain()
			}
		}
	}
	// The request context already ends the query when the client goes
	// away; timeout_ms adds a server-side deadline on top.
	ctx := r.Context()
	if po.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, po.timeout)
		defer cancel()
	}
	if po.minLSN > 0 {
		// Read-your-writes: park until the applied watermark reaches the
		// client's LSN (typically the leader's ingest ack echoed to a
		// follower). Without an explicit timeout_ms the wait is capped so a
		// follower cut off from its leader answers 504 instead of hanging.
		if s.watermark == nil {
			httpError(w, http.StatusBadRequest, errMinLSNUnsupported)
			return
		}
		wctx := ctx
		if _, ok := wctx.Deadline(); !ok {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(wctx, maxMinLSNWait)
			defer cancel()
		}
		if err := s.watermark.Wait(wctx, po.minLSN); err != nil {
			httpError(w, http.StatusGatewayTimeout,
				fmt.Errorf("min_lsn %d not applied within deadline (applied %d)", po.minLSN, s.watermark.Value()))
			return
		}
	}
	reqSpan := obs.SpanFromContext(ctx)
	begin := time.Now()
	aw := reqSpan.StartChild("admission_wait")
	if err := s.admit(ctx); err != nil {
		aw.SetAttr("outcome", "abandoned")
		aw.End()
		status := http.StatusServiceUnavailable // the client went away
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		httpError(w, status, fmt.Errorf("gave up waiting for an execution slot: %w", err))
		return
	}
	aw.End()
	s.inflight.Add(1)
	ex := reqSpan.StartChild("execute")
	if po.traced {
		// trace=1 switches the aggregates on; with request tracing off
		// (-traces 0) a private span carries them.
		if ex == nil {
			ex = obs.StartTrace("execute", obs.SpanContext{}, obs.NewTraceRing(1))
		}
		ex.EnableAggregates()
	}
	opts.Span = ex
	var (
		results []core.Result
		stats   core.QueryStats
	)
	// All three execution paths sit behind the same core.Querier call
	// shape: scatter-gather across shards, the lock-guarded WAL store, or
	// the bare tree.
	var querier core.Querier
	switch {
	case s.coord != nil:
		querier = s.coord
	case s.store != nil:
		// Live ingestion is on: queries must hold the store's read lock so
		// they never observe a half-applied batch.
		querier = s.store
	default:
		querier = s.tree
	}
	results, stats, err = querier.QueryCtx(ctx, q, &opts)
	ex.End()
	s.inflight.Add(-1)
	<-s.admission
	if planned {
		s.planner.Observe(plan, exp)
	}
	if err != nil {
		var shardErr *shard.ShardError
		switch {
		case errors.Is(err, core.ErrCanceled):
			if exp != nil {
				// The recorder was finished with the partial counts and
				// frontier: a timed-out explain reports what the search had
				// done, not just the error.
				httpapi.WriteJSON(w, http.StatusGatewayTimeout, map[string]any{
					"error": httpapi.Detail{
						Code:    httpapi.CodeTimeout,
						Message: err.Error(),
					},
					"explain": exp,
				})
				return
			}
			httpError(w, http.StatusGatewayTimeout, err)
		case errors.As(err, &shardErr):
			// A failed shard aborts the whole query — never a silently
			// partial top-k. The envelope names the shard so operators know
			// where to look.
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, core.ErrInvalid):
			httpError(w, http.StatusBadRequest, err)
		default:
			httpError(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	reply := queryReply{q: q, results: results, stats: &stats, explain: exp}
	if po.traced {
		reply.trace = ex.Aggregates()
	}
	reply.elapsedUS = time.Since(begin).Microseconds()
	rs := reqSpan.StartChild("respond")
	reply.write(w)
	rs.End()
}

// admit takes an execution slot, queueing when none is free. A request whose
// context ends while queued leaves the queue with the context's error instead
// of holding its place and then running for nobody; a free slot is taken
// regardless, and the search itself notices a dead context.
func (s *server) admit(ctx context.Context) error {
	select {
	case s.admission <- struct{}{}:
		return nil
	default:
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case s.admission <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseOpts carries the per-request options parsed alongside the query.
type parseOpts struct {
	traced  bool
	nocache bool
	explain bool
	timeout time.Duration
	minLSN  uint64
}

// parseQuery builds the core.Query from URL parameters. x and y are
// required; the interval defaults to the whole indexed span, or its last
// `days` days.
func (s *server) parseQuery(r *http.Request) (core.Query, parseOpts, error) {
	v := r.URL.Query()
	var po parseOpts
	q := core.Query{
		K:      10,
		Alpha0: 0.3,
		Iq:     tia.Interval{Start: s.dataStart, End: s.dataEnd},
	}
	var err error
	if q.X, err = floatParam(v.Get("x")); err != nil {
		return q, po, fmt.Errorf("parameter x: %w", err)
	}
	if q.Y, err = floatParam(v.Get("y")); err != nil {
		return q, po, fmt.Errorf("parameter y: %w", err)
	}
	if raw := v.Get("k"); raw != "" {
		if q.K, err = strconv.Atoi(raw); err != nil {
			return q, po, fmt.Errorf("parameter k: %w", err)
		}
	}
	if raw := v.Get("alpha"); raw != "" {
		if q.Alpha0, err = strconv.ParseFloat(raw, 64); err != nil {
			return q, po, fmt.Errorf("parameter alpha: %w", err)
		}
	}
	if raw := v.Get("days"); raw != "" {
		days, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return q, po, fmt.Errorf("parameter days: %w", err)
		}
		q.Iq.Start = q.Iq.End - days*lbsn.Day
		if q.Iq.Start < s.dataStart {
			q.Iq.Start = s.dataStart
		}
	}
	if raw := v.Get("start"); raw != "" {
		if q.Iq.Start, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return q, po, fmt.Errorf("parameter start: %w", err)
		}
	}
	if raw := v.Get("end"); raw != "" {
		if q.Iq.End, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return q, po, fmt.Errorf("parameter end: %w", err)
		}
	}
	if raw := v.Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 || ms > int64(math.MaxInt64/time.Millisecond) {
			return q, po, fmt.Errorf("parameter timeout_ms: must be a positive integer of at most %d", math.MaxInt64/time.Millisecond)
		}
		po.timeout = time.Duration(ms) * time.Millisecond
	}
	if raw := v.Get("min_lsn"); raw != "" {
		if po.minLSN, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return q, po, fmt.Errorf("parameter min_lsn: %w", err)
		}
	}
	po.traced = v.Get("trace") == "1" || v.Get("trace") == "true"
	po.nocache = v.Get("nocache") == "1" || v.Get("nocache") == "true"
	po.explain = v.Get("explain") == "1" || v.Get("explain") == "true"
	return q, po, nil
}

// maxMinLSNWait caps a min_lsn watermark wait when the request carries no
// timeout_ms of its own.
const maxMinLSNWait = 5 * time.Second

var (
	errRecovering        = fmt.Errorf("recovering: index not ready, retry later")
	errIngestDisabled    = fmt.Errorf("ingestion disabled: server started without -wal-dir")
	errIngestEmpty       = fmt.Errorf("no check-ins in request")
	errIngestBothForms   = fmt.Errorf(`use either {"poi","ts"} or {"checkins":[...]}, not both`)
	errMinLSNUnsupported = fmt.Errorf("min_lsn requires durable mode (-wal-dir)")
)

// ingestRequest is the JSON body of POST /v1/ingest: either a single check-in
// {"poi":17,"ts":1234567890} or a batch {"checkins":[{"poi":..,"ts":..},...]}.
type ingestRequest struct {
	POI      *int64       `json:"poi"`
	Ts       *int64       `json:"ts"`
	CheckIns []ingestItem `json:"checkins"`
}

type ingestItem struct {
	POI int64 `json:"poi"`
	Ts  int64 `json:"ts"`
}

// maxIngestBody bounds a POST /v1/ingest body; a larger one is refused with
// 413 before it is all read into memory, and nothing of it reaches the WAL.
const maxIngestBody = 8 << 20

// handleIngest durably records live check-ins: a 200 means every check-in in
// the request survived an fsync of the write-ahead log and is visible to
// subsequent queries. 503 while recovering or when the server runs without a
// WAL; 400 for malformed bodies, unknown POIs and times outside every epoch
// of the grid (before the origin, or in an epoch past math.MaxInt64); 413
// for a body over maxIngestBody.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, errRecovering)
		return
	}
	if s.role == "follower" {
		// A follower's WAL is a replica of the leader's — a local write
		// would fork the LSN sequence. The Location header teaches the
		// client where writes go.
		w.Header().Set("Location", s.leaderURL+"/v1/ingest")
		httpError(w, http.StatusForbidden,
			fmt.Errorf("read-only follower: send writes to the leader at %s", s.leaderURL))
		return
	}
	if s.store == nil {
		httpError(w, http.StatusServiceUnavailable, errIngestDisabled)
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("decoding body: %w", err))
		return
	}
	single := req.POI != nil || req.Ts != nil
	if single && len(req.CheckIns) > 0 {
		httpError(w, http.StatusBadRequest, errIngestBothForms)
		return
	}
	var cs []wal.CheckIn
	if single {
		if req.POI == nil || req.Ts == nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf(`both "poi" and "ts" are required`))
			return
		}
		cs = []wal.CheckIn{{POI: *req.POI, At: *req.Ts}}
	} else {
		if len(req.CheckIns) == 0 {
			httpError(w, http.StatusBadRequest, errIngestEmpty)
			return
		}
		cs = make([]wal.CheckIn, len(req.CheckIns))
		for i, c := range req.CheckIns {
			cs[i] = wal.CheckIn{POI: c.POI, At: c.Ts}
		}
	}
	begin := time.Now()
	lsn, err := s.store.IngestCtx(r.Context(), cs)
	if err != nil {
		if errors.Is(err, wal.ErrInvalid) {
			httpError(w, http.StatusBadRequest, err)
		} else {
			// Durability failure: the WAL could not persist the batch, so
			// nothing was acknowledged or applied.
			s.log.Error("ingest failed", "err", err, "checkins", len(cs))
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	// The ack LSN doubles as the read-your-writes token: advancing the
	// watermark here lets clients echo it as min_lsn on this server, and
	// the response tells them what to echo to a follower.
	if s.watermark != nil {
		s.watermark.Advance(lsn)
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"count":      len(cs),
		"lsn":        lsn,
		"elapsed_us": time.Since(begin).Microseconds(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":         "recovering",
			"uptime_seconds": time.Since(s.start).Seconds(),
		})
		return
	}
	resp := map[string]any{
		"status":         "ready",
		"role":           s.roleName(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if s.tree != nil {
		resp["indexed_pois"] = s.tree.Len()
		resp["grouping"] = s.tree.Grouping().String()
	}
	if s.store != nil {
		var pending int64
		s.store.View(func(t *core.Tree) { pending = t.PendingCheckIns() })
		resp["wal"] = map[string]any{
			"durable_lsn":      s.store.DurableLSN(),
			"applied_lsn":      s.store.AppliedLSN(),
			"checkpoint_lsn":   s.store.CheckpointLSN(),
			"pending_checkins": pending,
		}
	}
	switch s.role {
	case "follower":
		applied := s.store.AppliedLSN()
		durable := s.replMetrics.LeaderDurableLSN()
		var lag uint64
		if durable > applied {
			lag = durable - applied
		}
		resp["repl"] = map[string]any{
			"leader":             s.leaderURL,
			"applied_lsn":        applied,
			"leader_durable_lsn": durable,
			"lag_records":        lag,
		}
	case "leader":
		resp["repl"] = map[string]any{
			"snapshots_served": s.replMetrics.SnapshotsServed.Value(),
			"stream_requests":  s.replMetrics.StreamRequests.Value(),
			"records_streamed": s.replMetrics.RecordsStreamed.Value(),
		}
	case "shard":
		if sh := s.shardSrv.Load(); sh != nil {
			region := sh.Region
			resp["shard"] = map[string]any{
				"index": sh.Index,
				"of":    sh.N,
				"region": map[string]any{
					"min_x": region.Min[0], "min_y": region.Min[1],
					"max_x": region.Max[0], "max_y": region.Max[1],
				},
			}
		}
	case "coordinator":
		resp["shard"] = map[string]any{
			"shards": s.coord.Shards,
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// TraceFinished implements obs.TraceSink; both sinks take a nil receiver.
func (s *server) TraceFinished(t *obs.FinishedTrace) {
	s.traces.TraceFinished(t)
	s.traceOut.TraceFinished(t)
}

// handleTraces serves the ring, in every role: the most recent finished
// traces (requests, WAL commit batches, flushes, checkpoints) and the
// slowest query traces. ?id=<trace-id> returns this process's newest trace
// with that ID — the one a coordinator propagates to its shards;
// ?format=chrome exports the recent view as a Chrome trace_event JSON array,
// loadable directly in chrome://tracing or Perfetto.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("id"); raw != "" {
		var id obs.TraceID
		b, err := hex.DecodeString(raw)
		if err != nil || len(b) != len(id) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("parameter id: want %d hex characters", 2*len(id)))
			return
		}
		copy(id[:], b)
		ft := s.traces.Find(id)
		if ft == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("no finished trace %s in the ring", id))
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, ft)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"capacity":       s.traces.Cap(),
			"recent":         s.traces.Traces(),
			"slowest":        s.traces.Slowest(),
			"span_traces":    s.traces.Len(),
			"spans_finished": s.traces.Finished(),
		})
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="tarserve-trace.json"`)
		if err := obs.WriteChromeTrace(w, s.traces.Traces()); err != nil {
			s.log.Error("chrome trace export failed", "err", err)
		}
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (use json or chrome)", format))
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.reg.WriteTo(w); err != nil {
		s.log.Error("metrics write failed", "err", err)
	}
}

func floatParam(raw string) (float64, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing")
	}
	return strconv.ParseFloat(raw, 64)
}

// httpError writes the unified JSON error envelope (internal/httpapi): the
// code derives from the status, and a shard failure carries the failing
// shard's index and URL in details.
func httpError(w http.ResponseWriter, status int, err error) {
	var details map[string]any
	var shardErr *shard.ShardError
	if errors.As(err, &shardErr) {
		details = map[string]any{"shard": shardErr.Shard, "url": shardErr.URL}
	}
	httpapi.WriteError(w, status, httpapi.CodeForStatus(status), err.Error(), details)
}
