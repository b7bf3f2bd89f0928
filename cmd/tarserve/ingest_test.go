package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/httpapi"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/wal"
)

// newWALTestServer builds a ready server whose ingestion path is backed by a
// WAL store in dir, plus the data set it indexes.
func newWALTestServer(t *testing.T, dir string, cache *aggcache.Cache) (*server, *lbsn.Dataset, *wal.Store) {
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
	fs, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := wal.OpenStore(fs, func() (*core.Tree, error) {
		return d.Build(lbsn.BuildOptions{Metrics: reg, Cache: cache})
	}, wal.StoreOptions{Metrics: reg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := newPendingServer(reg, ring, log, 4)
	s.finishStartup(store.Tree(), store, d.Spec.Start, d.Spec.End)
	return s, d, store
}

func post(t *testing.T, s *server, url, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// indexedPOI returns the ID of some POI the tree carries.
func indexedPOI(t *testing.T, s *server, d *lbsn.Dataset) int64 {
	t.Helper()
	for _, p := range d.POIs {
		if _, ok := s.tree.Lookup(p.ID); ok {
			return p.ID
		}
	}
	t.Fatal("no indexed POI in data set")
	return 0
}

// queryAs GETs url and decodes the reply.
func queryAs(t *testing.T, s *server, url string) queryResponse {
	t.Helper()
	code, body := get(t, s, url)
	if code != 200 {
		t.Fatalf("GET %s: %d %s", url, code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeIngestKeepsCacheUntilFlush closes the loop between durable
// ingestion and the shared cache. An acknowledged check-in is buffered until
// its epoch is flushed, and nothing a query reads changes before then, so
// the cached answer stays warm and exact — read-your-writes through min_lsn
// included. The flush that makes the check-in visible empties the cache,
// and a restarted store (a new tree, so new cache keys) never serves the
// old tree's entries.
func TestServeIngestKeepsCacheUntilFlush(t *testing.T) {
	dir := t.TempDir()
	cache := aggcache.New(1 << 20)
	s, d, store := newWALTestServer(t, dir, cache)
	poi := indexedPOI(t, s, d)
	const url = "/v1/query?x=50&y=50&k=5&days=128"
	hitEqualsUncached := func(step string, s *server, url string, wantHit bool) {
		t.Helper()
		got, want := queryAs(t, s, url), queryAs(t, s, url+"&nocache=1")
		if got.Stats.ResultCacheHit != wantHit {
			t.Errorf("%s: result_cache_hit = %v, want %v", step, got.Stats.ResultCacheHit, wantHit)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: cached results %v differ from uncached %v", step, got.Results, want.Results)
		}
	}
	queryAs(t, s, url)
	queryAs(t, s, url) // the second sight fills the cache

	// 1. An ingested check-in is buffered: the cache keeps answering.
	at := d.Spec.End + 100
	code, body := post(t, s, "/v1/ingest", fmt.Sprintf(`{"poi":%d,"ts":%d}`, poi, at))
	if code != 200 {
		t.Fatalf("ingest: %d %s", code, body)
	}
	var ack struct{ LSN uint64 }
	if err := json.Unmarshal([]byte(body), &ack); err != nil {
		t.Fatal(err)
	}
	hitEqualsUncached("after ingest", s, url, true)

	// 2. Read-your-writes is about the applied LSN, which the ack reached.
	hitEqualsUncached("min_lsn=ack", s, fmt.Sprintf("%s&min_lsn=%d", url, ack.LSN), true)

	// 3. The flush that folds the epoch in empties the cache. A check-in at
	// the next epoch's start moves the clock past the first epoch's end.
	next := s.tree.Epochs().EpochOf(at).End
	if code, body := post(t, s, "/v1/ingest", fmt.Sprintf(`{"poi":%d,"ts":%d}`, poi, next)); code != 200 {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if err := store.FlushObserved(); err != nil {
		t.Fatal(err)
	}
	hitEqualsUncached("after flush", s, url, false)

	// 4. The query is cached again; a store restarted over the same WAL and
	// cache must not serve that entry.
	hitEqualsUncached("before restart", s, url, true)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, store2 := newWALTestServer(t, dir, cache)
	if store2.Recovery().Replay.Records == 0 {
		t.Fatal("restart replayed nothing")
	}
	hitEqualsUncached("after restart", s2, url, false)
}

// TestServeRecoveringThenReady pins the readiness lifecycle: before
// finishStartup the server refuses queries and ingestion and /healthz
// answers 503 "recovering"; afterwards it answers 200 "ready".
func TestServeRecoveringThenReady(t *testing.T) {
	spec, _ := lbsn.SpecByName("GS")
	d, err := lbsn.Generate(spec.Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := newPendingServer(reg, nil, log, 4)

	code, body := get(t, s, "/healthz")
	if code != 503 || !strings.Contains(body, `"recovering"`) {
		t.Errorf("recovering healthz: %d %s", code, body)
	}
	if code, body := get(t, s, "/v1/query?x=50&y=50"); code != 503 {
		t.Errorf("query while recovering: %d %s", code, body)
	}
	if code, body := post(t, s, "/v1/ingest", `{"poi":1,"ts":1}`); code != 503 {
		t.Errorf("ingest while recovering: %d %s", code, body)
	}
	// Observability stays up throughout recovery.
	code, metrics := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("metrics while recovering: %d", code)
	}
	if n := metricValue(t, metrics, "tarserve_ready"); n != 0 {
		t.Errorf("tarserve_ready = %g while recovering, want 0", n)
	}

	tr, err := d.Build(lbsn.BuildOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.finishStartup(tr, nil, d.Spec.Start, d.Spec.End)

	code, body = get(t, s, "/healthz")
	if code != 200 || !strings.Contains(body, `"ready"`) {
		t.Errorf("ready healthz: %d %s", code, body)
	}
	if code, body := get(t, s, "/v1/query?x=50&y=50&k=5&days=128"); code != 200 {
		t.Errorf("query once ready: %d %s", code, body)
	}
	_, metrics = get(t, s, "/metrics")
	if n := metricValue(t, metrics, "tarserve_ready"); n != 1 {
		t.Errorf("tarserve_ready = %g once ready, want 1", n)
	}
}

// TestServeIngestDisabledWithoutWAL: a server started without -wal-dir
// refuses ingestion with 503, not 404.
func TestServeIngestDisabledWithoutWAL(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := post(t, s, "/v1/ingest", `{"poi":1,"ts":1}`)
	if code != 503 || !strings.Contains(body, "ingestion disabled") {
		t.Errorf("ingest without WAL: %d %s", code, body)
	}
}

// TestServeIngest exercises the durable ingestion endpoint end to end:
// single and batch bodies, LSN assignment, healthz WAL status, WAL metrics,
// rejection of malformed and invalid requests, and durability across a
// store restart.
func TestServeIngest(t *testing.T) {
	dir := t.TempDir()
	s, d, store := newWALTestServer(t, dir, nil)
	poi := indexedPOI(t, s, d)
	ts := d.Spec.End + 100

	code, body := post(t, s, "/v1/ingest", fmt.Sprintf(`{"poi":%d,"ts":%d}`, poi, ts))
	if code != 200 {
		t.Fatalf("single ingest: %d %s", code, body)
	}
	var resp struct {
		Count int    `json:"count"`
		LSN   uint64 `json:"lsn"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.LSN != 1 {
		t.Errorf("single ingest: count=%d lsn=%d, want 1/1", resp.Count, resp.LSN)
	}

	batch := fmt.Sprintf(`{"checkins":[{"poi":%d,"ts":%d},{"poi":%d,"ts":%d},{"poi":%d,"ts":%d}]}`,
		poi, ts+1, poi, ts+2, poi, ts+3)
	code, body = post(t, s, "/v1/ingest", batch)
	if code != 200 {
		t.Fatalf("batch ingest: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || resp.LSN != 4 {
		t.Errorf("batch ingest: count=%d lsn=%d, want 3/4", resp.Count, resp.LSN)
	}

	code, body = get(t, s, "/healthz")
	if code != 200 || !strings.Contains(body, `"wal"`) {
		t.Fatalf("healthz after ingest: %d %s", code, body)
	}
	var hz struct {
		WAL struct {
			Durable uint64 `json:"durable_lsn"`
			Applied uint64 `json:"applied_lsn"`
			Pending int64  `json:"pending_checkins"`
			CkptLSN uint64 `json:"checkpoint_lsn"`
		} `json:"wal"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.WAL.Durable != 4 || hz.WAL.Applied != 4 || hz.WAL.Pending != 4 {
		t.Errorf("healthz wal = %+v, want durable/applied/pending 4/4/4", hz.WAL)
	}

	_, metrics := get(t, s, "/metrics")
	if n := metricValue(t, metrics, "tartree_wal_records_total"); n != 4 {
		t.Errorf("wal records = %g, want 4", n)
	}
	if n := metricValue(t, metrics, "tartree_wal_appends_total"); n != 2 {
		t.Errorf("wal appends = %g, want 2", n)
	}

	// Queries keep working through the store-locked path.
	if code, body := get(t, s, "/v1/query?x=50&y=50&k=5&days=128"); code != 200 {
		t.Errorf("query after ingest: %d %s", code, body)
	}

	// Invalid requests: nothing gets logged, LSNs don't advance.
	for _, tc := range []struct{ name, body string }{
		{"unknown POI", `{"poi":999999999,"ts":` + fmt.Sprint(ts) + `}`},
		{"pre-origin ts", fmt.Sprintf(`{"poi":%d,"ts":-999999999}`, poi)},
		// Its epoch would end past math.MaxInt64: accepted, the flush
		// would store an epoch of negative length that no checkpoint loads.
		{"epoch past int64", fmt.Sprintf(`{"poi":%d,"ts":9223372036854775800}`, poi)},
		{"bad JSON", `{"poi":`},
		{"unknown field", `{"poi":1,"ts":1,"frob":2}`},
		{"empty", `{}`},
		{"empty batch", `{"checkins":[]}`},
		{"both forms", fmt.Sprintf(`{"poi":%d,"ts":%d,"checkins":[{"poi":%d,"ts":%d}]}`, poi, ts, poi, ts)},
		{"half single", `{"poi":1}`},
	} {
		code, body := post(t, s, "/v1/ingest", tc.body)
		if code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
		}
	}
	if lsn := store.DurableLSN(); lsn != 4 {
		t.Errorf("durable LSN after rejects = %d, want 4", lsn)
	}

	// Wrong method on /ingest.
	if code, _ := get(t, s, "/v1/ingest"); code != 405 && code != 404 {
		t.Errorf("GET /ingest: status %d, want 405/404", code)
	}

	// Durability: a fresh store over the same directory replays all four
	// check-ins without help from the base builder.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, store2 := newWALTestServer(t, dir, nil)
	if got := store2.Recovery().Replay.Records; got != 4 {
		t.Errorf("restart replayed %d records, want 4", got)
	}
	code, body = get(t, s2, "/healthz")
	if code != 200 {
		t.Fatalf("healthz after restart: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.WAL.Applied != 4 || hz.WAL.Pending != 4 {
		t.Errorf("restart healthz wal = %+v, want applied/pending 4/4", hz.WAL)
	}
}

// TestServeIngestBodyLimit: a body over maxIngestBody is refused with the
// 413 envelope and none of it reaches the WAL.
func TestServeIngestBodyLimit(t *testing.T) {
	s, d, store := newWALTestServer(t, t.TempDir(), nil)
	poi := indexedPOI(t, s, d)
	if code, body := post(t, s, "/v1/ingest", fmt.Sprintf(`{"poi":%d,"ts":%d}`, poi, d.Spec.End+1)); code != 200 {
		t.Fatalf("ingest: %d %s", code, body)
	}
	before := store.DurableLSN()

	item := fmt.Sprintf(`{"poi":%d,"ts":%d},`, poi, d.Spec.End+2)
	big := `{"checkins":[` + strings.Repeat(item, maxIngestBody/len(item)+1) + item[:len(item)-1] + `]}`
	code, body := post(t, s, "/v1/ingest", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize ingest: %d %.200s", code, body)
	}
	var env httpapi.Envelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != httpapi.CodeForStatus(code) || env.Error.Message == "" {
		t.Errorf("oversize ingest: body %.200q is not the error envelope (%v)", body, err)
	}
	if got := store.DurableLSN(); got != before {
		t.Errorf("durable_lsn moved %d -> %d on a refused body", before, got)
	}
}
