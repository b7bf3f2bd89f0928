package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

func newTestServer(t *testing.T) (*server, *lbsn.Dataset) {
	t.Helper()
	return newTestServerOn(t, nil)
}

// newTestServerOn is newTestServer with the TIA factory named (nil: the
// default, what tarserve runs); tests asserting page traffic pass the
// paper's B+-tree set-up.
func newTestServerOn(t *testing.T, factory tia.Factory) (*server, *lbsn.Dataset) {
	t.Helper()
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lbsn.Generate(spec.Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(8)
	tr, err := d.Build(lbsn.BuildOptions{Metrics: reg, TIA: factory})
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	return newServer(tr, reg, ring, log, d.Spec.Start, d.Spec.End, 4), d
}

func get(t *testing.T, s *server, url string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Code, rec.Body.String()
}

// TestServeQueryThenMetrics is the end-to-end acceptance check: a kNNTA
// query over HTTP must leave nonzero query-latency buckets, pagestore
// hit/miss counters, and per-backend TIA probe counts on /metrics.
func TestServeQueryThenMetrics(t *testing.T) {
	s, _ := newTestServerOn(t, tia.NewBTreeFactory(1024, 10))

	code, body := get(t, s, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128")
	if code != 200 {
		t.Fatalf("query status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("query response not JSON: %v\n%s", err, body)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 5 {
		t.Fatalf("got %d results, want 1..5", len(resp.Results))
	}
	if resp.Stats.NodeAccesses <= 0 || resp.Stats.Scored <= 0 {
		t.Errorf("query did no work: %+v", resp.Stats)
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Score < resp.Results[i-1].Score {
			t.Errorf("results not sorted by score at %d", i)
		}
	}

	code, metrics := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if n := metricValue(t, metrics, `tartree_queries_total`); n != 1 {
		t.Errorf("tartree_queries_total = %g, want 1", n)
	}
	if n := metricValue(t, metrics, `tartree_query_latency_seconds_bucket{le="+Inf"}`); n != 1 {
		t.Errorf("latency +Inf bucket = %g, want 1", n)
	}
	if n := metricValue(t, metrics, `tartree_query_latency_seconds_count`); n != 1 {
		t.Errorf("latency count = %g, want 1", n)
	}
	if n := metricValue(t, metrics, `tartree_query_latency_seconds_sum`); n <= 0 {
		t.Errorf("latency sum = %g, want > 0", n)
	}
	// The work counters must reconcile with the response's own stats.
	if n := metricValue(t, metrics, `tartree_rtree_node_accesses_total{level="leaf"}`); n != float64(resp.Stats.LeafAccesses) {
		t.Errorf("leaf accesses = %g, want %d", n, resp.Stats.LeafAccesses)
	}
	if n := metricValue(t, metrics, `tartree_tia_page_reads_total{kind="logical"}`); n != float64(resp.Stats.TIAAccesses) {
		t.Errorf("tia page reads = %g, want %d", n, resp.Stats.TIAAccesses)
	}
	hits := metricValue(t, metrics, `tartree_pagestore_reads_total{result="hit"}`)
	misses := metricValue(t, metrics, `tartree_pagestore_reads_total{result="miss"}`)
	if hits+misses <= 0 {
		t.Errorf("pagestore reads hit=%g miss=%g, want traffic", hits, misses)
	}
	if n := metricValue(t, metrics, `tartree_tia_probes_total{backend="btree"}`); n <= 0 {
		t.Errorf("btree probes = %g, want > 0", n)
	}
	if n := metricValue(t, metrics, `tarserve_http_requests_total`); n < 1 {
		t.Errorf("http requests = %g, want >= 1", n)
	}
	for _, ty := range []string{
		"# TYPE tartree_query_latency_seconds histogram",
		"# TYPE tartree_pagestore_reads_total counter",
		"# TYPE tarserve_max_concurrent_queries gauge",
	} {
		if !strings.Contains(metrics, ty) {
			t.Errorf("missing %q in /metrics", ty)
		}
	}
}

// TestServeDefaultCountsNoPages pins the accounting of the server as it is
// deployed, on the default in-memory TIAs: a probe that reads no page counts
// none — the TIA page counters read 0 in the response and on /metrics —
// while the probes themselves and the R-tree accesses are still counted.
func TestServeDefaultCountsNoPages(t *testing.T) {
	s, _ := newTestServer(t)
	probes := metricValueOf(t, s, `tartree_tia_probes_total{backend="mem"}`)
	code, body := get(t, s, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128")
	if code != 200 {
		t.Fatalf("query status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.TIAAccesses != 0 || resp.Stats.TIAPhysical != 0 {
		t.Errorf("in-memory probes counted pages: %+v", resp.Stats)
	}
	if resp.Stats.Scored <= 0 || resp.Stats.NodeAccesses != int64(resp.Stats.InternalAccesses+resp.Stats.LeafAccesses) {
		t.Errorf("stats = %+v, want scored entries and node accesses = R-tree accesses", resp.Stats)
	}
	// One probe per scored entry plus the gmax read.
	if got := metricValueOf(t, s, `tartree_tia_probes_total{backend="mem"}`) - probes; got != float64(resp.Stats.Scored+1) {
		t.Errorf("mem probes grew by %g, want scored+1 = %d", got, resp.Stats.Scored+1)
	}
	_, metrics := get(t, s, "/metrics")
	for _, result := range []string{"hit", "miss"} {
		if n := metricValue(t, metrics, `tartree_pagestore_reads_total{result="`+result+`"}`); n != 0 {
			t.Errorf("pagestore reads %s = %g on a server without pages", result, n)
		}
	}
	if n := metricValue(t, metrics, `tartree_tia_page_reads_total{kind="logical"}`); n != 0 {
		t.Errorf("tia page reads = %g on a server without pages", n)
	}
	if n := metricValue(t, metrics, `tartree_rtree_node_accesses_total{level="leaf"}`); n != float64(resp.Stats.LeafAccesses) {
		t.Errorf("leaf accesses = %g, want %d", n, resp.Stats.LeafAccesses)
	}
}

// metricValueOf scrapes /metrics and returns one series' value.
func metricValueOf(t *testing.T, s *server, name string) float64 {
	t.Helper()
	_, metrics := get(t, s, "/metrics")
	return metricValue(t, metrics, name)
}

func TestServeQueryTrace(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := get(t, s, "/v1/query?x=30&y=70&k=3&trace=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"gmax", "queue_pop", "expand", "tia_probe"} {
		if resp.Trace[span].Count == 0 {
			t.Errorf("span %q missing from trace: %v", span, resp.Trace)
		}
	}
	if len(resp.Trace) != 4 {
		t.Errorf("trace has keys beyond the four phases: %v", resp.Trace)
	}
	// The aggregate counts reconcile with the work counters.
	if got, want := resp.Trace["tia_probe"].Count, int64(resp.Stats.Scored); got != want {
		t.Errorf("tia_probe count = %d, want stats.scored = %d", got, want)
	}
	if got, want := resp.Trace["expand"].Count, int64(resp.Stats.InternalAccesses+resp.Stats.LeafAccesses); got != want-1 {
		t.Errorf("expand count = %d, want node accesses less the root read = %d", got, want-1)
	}
	// Untraced queries must not carry a trace.
	_, body = get(t, s, "/v1/query?x=30&y=70&k=3")
	if strings.Contains(body, `"trace"`) {
		t.Error("untraced query response contains a trace")
	}
}

// TestServeTraces checks the ring endpoint: every query — trace=1 or not —
// must appear as a finished trace whose execute span carries the query and
// its work total, and a trace=1 query keeps its aggregates.
func TestServeTraces(t *testing.T) {
	s, _ := newTestServerOn(t, tia.NewBTreeFactory(1024, 10))
	for i := 0; i < 3; i++ {
		if code, body := get(t, s, "/v1/query?x=50&y=50&k=5&days=128"); code != 200 {
			t.Fatalf("query status %d: %s", code, body)
		}
	}
	if code, body := get(t, s, "/v1/query?x=20&y=80&k=3&trace=1"); code != 200 {
		t.Fatalf("traced query status %d: %s", code, body)
	}

	code, body := get(t, s, "/v1/traces")
	if code != 200 {
		t.Fatalf("/v1/traces status %d: %s", code, body)
	}
	var dump struct {
		Capacity int                 `json:"capacity"`
		Recent   []obs.FinishedTrace `json:"recent"`
		Slowest  []obs.FinishedTrace `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/v1/traces not JSON: %v\n%s", err, body)
	}
	if dump.Capacity != 8 {
		t.Errorf("capacity = %d, want 8", dump.Capacity)
	}
	if len(dump.Recent) != 4 || len(dump.Slowest) != 4 {
		t.Fatalf("recent=%d slowest=%d traces, want 4 each", len(dump.Recent), len(dump.Slowest))
	}
	// Newest first: the trace=1 query leads and keeps its aggregates.
	newest := dump.Recent[0]
	if q, _ := newest.Find("execute").Attr(obs.AttrQuery); !strings.Contains(fmt.Sprint(q), "k=3") {
		t.Errorf("newest trace's query = %v, want the k=3 query", q)
	}
	if len(newest.Aggregates) == 0 {
		t.Error("trace=1 query has no aggregates")
	}
	if dump.Recent[1].Aggregates != nil {
		t.Error("ordinary query has aggregates")
	}
	for _, ft := range dump.Recent {
		if ft.TraceID.IsZero() || ft.Root().Duration() <= 0 {
			t.Errorf("trace missing identity/timing: %+v", ft.Root())
		}
		if n, _ := ft.Find("execute").Attr("node_accesses"); n == nil || n.(float64) <= 0 {
			t.Errorf("trace %s carries no work: node_accesses = %v", ft.TraceID, n)
		}
	}
	for i := 1; i < len(dump.Slowest); i++ {
		if dump.Slowest[i].Root().Duration() > dump.Slowest[i-1].Root().Duration() {
			t.Errorf("slowest view not descending at %d", i)
		}
	}

	// One trace by ID, as a coordinator's caller would ask a shard.
	code, body = get(t, s, "/v1/traces?id="+newest.TraceID.String())
	var one obs.FinishedTrace
	if err := json.Unmarshal([]byte(body), &one); code != 200 || err != nil || one.TraceID != newest.TraceID {
		t.Errorf("?id= lookup: status %d, err %v, trace %s", code, err, one.TraceID)
	}
	if code, _ := get(t, s, "/v1/traces?id=00000000000000000000000000000001"); code != 404 {
		t.Errorf("unknown trace id: status %d, want 404", code)
	}
	if code, _ := get(t, s, "/v1/traces?id=xyz"); code != 400 {
		t.Errorf("malformed trace id: status %d, want 400", code)
	}
}

// TestServeAdmissionAbandoned checks that a request whose deadline passes
// while it waits for an execution slot leaves the queue: 504 promptly, the
// queue-depth gauge back to zero, and a trace that never reached execute.
func TestServeAdmissionAbandoned(t *testing.T) {
	s, _ := newTestServer(t)
	for i := 0; i < cap(s.admission); i++ {
		s.admission <- struct{}{} // every slot taken
	}
	begin := time.Now()
	code, body := get(t, s, "/v1/query?x=50&y=50&k=5&timeout_ms=20")
	// The slots never free up, so any answer means the wait honoured the
	// deadline; the bound only has to tell ~20ms from "hung", with room for
	// a slow -race runner.
	if took := time.Since(begin); took > 250*time.Millisecond {
		t.Errorf("abandoned request answered after %v, want ~20ms", took)
	}
	if code != 504 || !strings.Contains(body, `"timeout"`) {
		t.Fatalf("status %d, want the 504 timeout envelope: %s", code, body)
	}
	_, metrics := get(t, s, "/metrics")
	if n := metricValue(t, metrics, "tarserve_query_queue_depth"); n != 0 {
		t.Errorf("queue depth = %v after the request left, want 0", n)
	}
	ft := s.traces.Traces()[0]
	aw := ft.Find("admission_wait")
	if aw == nil || ft.Find("execute") != nil {
		t.Fatalf("abandoned trace spans = %v, want admission_wait and no execute", spanNames(ft))
	}
	if v, _ := aw.Attr("outcome"); v != "abandoned" {
		t.Errorf("admission_wait outcome = %v, want abandoned", v)
	}

	// A client that goes away while queued is 503, not a timeout.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?x=50&y=50&k=5", nil).WithContext(ctx))
	if rec.Code != 503 {
		t.Errorf("canceled while queued: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if n := s.queued.Load(); n != 0 {
		t.Errorf("queued = %d after both requests left, want 0", n)
	}
}

// TestServeConcurrentQueries hammers /query from many goroutines — more
// than the admission limit — and checks that every request succeeds with
// internally consistent per-query stats, and that the in-flight and
// queue-depth gauges drain back to zero.
func TestServeConcurrentQueries(t *testing.T) {
	s, _ := newTestServer(t)
	const workers = 8
	const perWorker = 5
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				x := 10 + (w*13+i*7)%80
				y := 10 + (w*29+i*11)%80
				code, body := get(t, s, "/v1/query?x="+strconv.Itoa(x)+"&y="+strconv.Itoa(y)+"&k=5&days=128")
				if code != 200 {
					errs <- fmt.Errorf("worker %d: status %d: %s", w, code, body)
					return
				}
				var resp queryResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				// Per-query counters must stay consistent even under load.
				if st := resp.Stats; st.NodeAccesses != int64(st.InternalAccesses+st.LeafAccesses)+st.TIAAccesses {
					errs <- fmt.Errorf("worker %d: node_accesses %d != R-tree + TIA reads in %+v", w, st.NodeAccesses, st)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := s.inflight.Load(); n != 0 {
		t.Errorf("inflight gauge = %d after drain, want 0", n)
	}
	if n := s.queued.Load(); n != 0 {
		t.Errorf("queue-depth gauge = %d after drain, want 0", n)
	}
	_, metrics := get(t, s, "/metrics")
	if n := metricValue(t, metrics, "tarserve_max_concurrent_queries"); n != 4 {
		t.Errorf("max-concurrent gauge = %g, want 4", n)
	}
	if n := metricValue(t, metrics, "tartree_queries_total"); n != workers*perWorker {
		t.Errorf("queries_total = %g, want %d", n, workers*perWorker)
	}
}

func TestServeBadRequests(t *testing.T) {
	s, _ := newTestServer(t)
	for _, url := range []string{
		"/v1/query",               // missing x, y
		"/v1/query?x=abc&y=1",     // non-numeric
		"/v1/query?x=50&y=50&k=0", // invalid k
	} {
		code, body := get(t, s, url)
		if code != 400 && code != 422 {
			t.Errorf("GET %s: status %d, want 4xx (%s)", url, code, body)
		}
		if !strings.Contains(body, `"error"`) {
			t.Errorf("GET %s: no error field in %s", url, body)
		}
	}
	if code, _ := get(t, s, "/nosuch"); code != 404 {
		t.Errorf("unknown path: status %d, want 404", code)
	}
}

// TestServeQueryCanceled checks the timeout surface: a query whose context
// is already dead answers 504 Gateway Timeout, not a success or a 5xx
// masquerading as a server fault.
func TestServeQueryCanceled(t *testing.T) {
	s, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/query?x=50&y=50&k=5&timeout_ms=1000", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 504 {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("504 body has no error field: %s", rec.Body.String())
	}
	// A bogus timeout_ms is a client error, not a timeout.
	if code, _ := get(t, s, "/v1/query?x=50&y=50&timeout_ms=-5"); code != 400 {
		t.Errorf("negative timeout_ms: status %d, want 400", code)
	}
}

// TestServeQueryCacheStats runs a server with the shared cache attached and
// checks the full loop: the second identical query is a whole-result cache
// hit with zero traversal, the response reports it, nocache=1 bypasses the
// cache, and the aggcache gauges appear on /metrics.
func TestServeQueryCacheStats(t *testing.T) {
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lbsn.Generate(spec.Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache := aggcache.New(1 << 20)
	tr, err := d.Build(lbsn.BuildOptions{Metrics: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := newServer(tr, reg, nil, log, d.Spec.Start, d.Spec.End, 4)

	const url = "/v1/query?x=50&y=50&k=5&days=128"
	var cold, warm, bypass queryResponse
	for _, step := range []struct {
		url  string
		resp *queryResponse
	}{{url, &cold}, {url, &warm}, {url + "&nocache=1", &bypass}} {
		code, body := get(t, s, step.url)
		if code != 200 {
			t.Fatalf("GET %s: status %d: %s", step.url, code, body)
		}
		if err := json.Unmarshal([]byte(body), step.resp); err != nil {
			t.Fatal(err)
		}
	}
	if cold.Stats.ResultCacheHit || cold.Stats.CacheMisses == 0 {
		t.Errorf("cold query stats: %+v", cold.Stats)
	}
	if !warm.Stats.ResultCacheHit || warm.Stats.CacheHits == 0 {
		t.Errorf("warm query not served from the cache: %+v", warm.Stats)
	}
	if warm.Stats.NodeAccesses != 0 || warm.Stats.TIAAccesses != 0 {
		t.Errorf("result-cache hit still traversed: %+v", warm.Stats)
	}
	if len(warm.Results) != len(cold.Results) || warm.Results[0] != cold.Results[0] {
		t.Error("cached results differ from cold results")
	}
	if bypass.Stats.ResultCacheHit || bypass.Stats.CacheHits != 0 || bypass.Stats.CacheMisses != 0 {
		t.Errorf("nocache=1 still touched the cache: %+v", bypass.Stats)
	}
	if len(bypass.Results) != len(cold.Results) || bypass.Results[0] != cold.Results[0] {
		t.Error("nocache results differ from cached results")
	}

	_, metrics := get(t, s, "/metrics")
	if n := metricValue(t, metrics, "tartree_aggcache_hits_total"); n < 1 {
		t.Errorf("aggcache hits metric = %g, want >= 1", n)
	}
	if n := metricValue(t, metrics, "tartree_aggcache_entries"); n < 1 {
		t.Errorf("aggcache entries gauge = %g, want >= 1", n)
	}
}

// TestAccessLogErrorsAndSlowOnly: a fast success writes no access line; a
// failed request and a request over the slow threshold write one each.
func TestAccessLogErrorsAndSlowOnly(t *testing.T) {
	s, _ := newTestServer(t)
	var buf bytes.Buffer
	s.log = slog.New(slog.NewTextHandler(&buf, nil))
	lines := func() int {
		n := strings.Count(buf.String(), "msg=request ")
		buf.Reset()
		return n
	}
	s.slowQuery = time.Hour
	for _, tc := range []struct {
		url  string
		code int
		want int
	}{
		{"/v1/query?x=50&y=50&k=5", 200, 0},
		{"/v1/query?x=50&y=50&k=0", 400, 1},
		{"/v1/nosuch", 404, 1},
	} {
		if code, body := get(t, s, tc.url); code != tc.code {
			t.Fatalf("GET %s: status %d, want %d: %s", tc.url, code, tc.code, body)
		}
		if n := lines(); n != tc.want {
			t.Errorf("GET %s (%d): %d access lines, want %d", tc.url, tc.code, n, tc.want)
		}
	}
	s.slowQuery = time.Microsecond
	if code, _ := get(t, s, "/v1/query?x=50&y=50&k=5&nocache=1"); code != 200 {
		t.Fatalf("slow query: status %d", code)
	}
	if n := lines(); n != 1 {
		t.Errorf("a request over the slow threshold wrote %d access lines, want 1", n)
	}
}

func TestServeHealthzAndPprof(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := get(t, s, "/healthz")
	if code != 200 || !strings.Contains(body, `"ready"`) {
		t.Errorf("healthz: %d %s", code, body)
	}
	code, body = get(t, s, "/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("pprof cmdline: status %d %s", code, body)
	}
}

// metricValue extracts a sample value from Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: bad value %q", name, m[1])
	}
	return v
}

// TestServeHeaderTimeout: a client that connects and never finishes its
// request line is disconnected once readHeaderTimeout passes, instead of
// holding the connection (and its goroutine) for ever.
func TestServeHeaderTimeout(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond
	s, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(s)
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}
	// The server answers the stalled request with 408 at most and closes:
	// the read must end in EOF well inside the deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection was not closed by the server: %v", err)
	}

	// A complete request on a fresh connection is still served.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz after a timed-out peer: %d", resp.StatusCode)
	}
}
