package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/wal"
)

// newTracingTestServer builds a ready server with a shared cache (so the
// query path exercises cache_probe spans) and no WAL.
func newTracingTestServer(t *testing.T) *server {
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
	cache := aggcache.New(1 << 20)
	tr, err := d.Build(lbsn.BuildOptions{Metrics: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	return newServer(tr, reg, obs.NewTraceRing(8), log, d.Spec.Start, d.Spec.End, 4)
}

// TestQueryTraceSpansReconcile is the query-side tracing acceptance test: a
// traced request must produce admission_wait, cache_probe, and search
// spans, propagate the client's traceparent, and the summed self-times of
// the handler spans must reconcile with the reported request latency.
func TestQueryTraceSpansReconcile(t *testing.T) {
	s := newTracingTestServer(t)

	const client = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128", nil)
	req.Header.Set("traceparent", client)
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}

	// The response announces the server's span in the client's trace.
	tp := rec.Header().Get("traceparent")
	sc, err := obs.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	want, _ := obs.ParseTraceparent(client)
	if sc.TraceID != want.TraceID {
		t.Fatalf("response joined trace %s, want client trace %s", sc.TraceID, want.TraceID)
	}

	ft := s.traces.Find(sc.TraceID)
	if ft == nil {
		t.Fatal("request trace not in span buffer")
	}
	for _, name := range []string{"admission_wait", "execute", "cache_probe", "search", "respond"} {
		if ft.Find(name) == nil {
			t.Fatalf("trace missing span %q (spans: %v)", name, spanNames(ft))
		}
	}
	// The remote client span is the root's parent, zeroed to keep the
	// exported tree self-contained.
	if root := ft.Root(); root.Name != "GET /v1/query" {
		t.Fatalf("root span %q", root.Name)
	}

	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Self-times of the handler phase spans telescope to admission_wait +
	// execute wall time, which is what elapsed_us reports (minus span
	// bookkeeping gaps of nanoseconds).
	var sum time.Duration
	for _, name := range []string{"admission_wait", "execute", "cache_probe", "search", "cache_store"} {
		if sp := ft.Find(name); sp != nil {
			sum += ft.SelfTime(sp.ID)
		}
	}
	elapsed := time.Duration(resp.ElapsedMicros) * time.Microsecond
	diff := sum - elapsed
	if diff < 0 {
		diff = -diff
	}
	if diff > elapsed/20 && diff > 50*time.Microsecond {
		t.Fatalf("span self-times %v vs reported latency %v: off by %v (>5%%)", sum, elapsed, diff)
	}
}

func spanNames(ft *obs.FinishedTrace) []string {
	names := make([]string, len(ft.Spans))
	for i, sp := range ft.Spans {
		names[i] = sp.Name
	}
	return names
}

// newSlowWALTracingServer builds a WAL-backed server whose fsyncs take long
// enough that concurrent ingests coalesce into one commit batch.
func newSlowWALTracingServer(t *testing.T) *server {
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
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := newPendingServer(reg, obs.NewTraceRing(8), log, 4)

	dirFS, err := wal.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store, err := wal.OpenStore(&wal.SlowFS{FS: dirFS, SyncDelay: 20 * time.Millisecond},
		func() (*core.Tree, error) {
			return d.Build(lbsn.BuildOptions{Metrics: reg})
		}, wal.StoreOptions{Metrics: reg, TraceSink: s.spanSink})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s.finishStartup(store.Tree(), store, d.Spec.Start, d.Spec.End)
	return s
}

// TestIngestTraceEndToEnd is the ingest-side acceptance test: concurrent
// POST /v1/ingest requests with traceparent headers yield span trees with
// validate → wal_append → fsync_batch → apply, and a wal_commit_batch
// trace that links at least two of the member requests.
func TestIngestTraceEndToEnd(t *testing.T) {
	s := newSlowWALTracingServer(t)
	poi := int64(-1)
	for id := int64(1); id < 1000; id++ {
		if _, ok := s.tree.Lookup(id); ok {
			poi = id
			break
		}
	}
	if poi < 0 {
		t.Fatal("no indexed POI")
	}

	const writers = 6
	traceIDs := make([]obs.TraceID, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			body := fmt.Sprintf(`{"poi": %d, "ts": %d}`, poi, s.dataEnd+int64(i))
			req := httptest.NewRequest("POST", "/v1/ingest", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			s.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Errorf("ingest status %d: %s", rec.Code, rec.Body.String())
				return
			}
			sc, err := obs.ParseTraceparent(rec.Header().Get("traceparent"))
			if err != nil {
				t.Errorf("ingest response traceparent: %v", err)
				return
			}
			traceIDs[i] = sc.TraceID
		}()
	}
	wg.Wait()

	members := make(map[obs.TraceID]bool, writers)
	for _, id := range traceIDs {
		members[id] = true
	}
	for _, id := range traceIDs {
		ft := s.traces.Find(id)
		if ft == nil {
			t.Fatalf("ingest trace %s not captured", id)
		}
		for _, name := range []string{"validate", "wal_append", "fsync_batch", "apply"} {
			if ft.Find(name) == nil {
				t.Fatalf("ingest trace missing %q (spans: %v)", name, spanNames(ft))
			}
		}
	}
	best := 0
	for _, ft := range s.traces.Traces() {
		if ft.Root().Name != "wal_commit_batch" {
			continue
		}
		linked := 0
		for _, link := range ft.Root().Links {
			if members[link.TraceID] {
				linked++
			}
		}
		if linked > best {
			best = linked
		}
	}
	if best < 2 {
		t.Fatalf("no commit batch links >= 2 concurrent ingests (best %d)", best)
	}
}

// TestTracesChromeExport checks the /v1/traces?format=chrome endpoint.
func TestTracesChromeExport(t *testing.T) {
	s := newTracingTestServer(t)
	if code, body := get(t, s, "/v1/query?x=50&y=50&k=3"); code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	code, body := get(t, s, "/v1/traces?format=chrome")
	if code != 200 {
		t.Fatalf("chrome export status %d", code)
	}
	if !strings.HasPrefix(body, "[\n") || !strings.Contains(body, `"ph":"X"`) {
		t.Fatalf("not a chrome trace event array:\n%.200s", body)
	}
	if !strings.Contains(body, "GET /v1/query") {
		t.Fatal("exported trace missing the query request span")
	}
	if code, _ := get(t, s, "/v1/traces?format=bogus"); code != 400 {
		t.Fatalf("bogus format status %d, want 400", code)
	}
	// The default JSON view still works and now reports span-trace counts.
	code, body = get(t, s, "/v1/traces")
	if code != 200 || !strings.Contains(body, "span_traces") {
		t.Fatalf("default traces view: %d %s", code, body)
	}
}
