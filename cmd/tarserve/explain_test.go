package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"tartree/internal/aggcache"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
)

// TestServeQueryExplain is the HTTP half of the explain acceptance: a
// query with explain=1 returns the full recorder — plan estimates, pop
// log, convergence, frontier — whose counters reconcile with the stats
// block of the same response, and the planner's calibration series appear
// on /metrics afterwards.
func TestServeQueryExplain(t *testing.T) {
	s, _ := newTestServer(t)

	code, body := get(t, s, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128&explain=1")
	if code != 200 {
		t.Fatalf("explain query status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("explain response not JSON: %v", err)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explain=1 response has no explain object")
	}
	if ex.Plan == nil {
		t.Fatal("explain has no plan (estimator failed on a healthy tree)")
	}
	if ex.Plan.Engine != "tar-tree" && ex.Plan.Engine != "sequential-scan" {
		t.Errorf("plan engine = %q", ex.Plan.Engine)
	}
	if ex.Plan.EstimatedNodeAccesses <= 0 || ex.Plan.EstimatedFk <= 0 {
		t.Errorf("plan estimates empty: %+v", ex.Plan)
	}
	if ex.Pops == 0 || ex.HeapMax == 0 || len(ex.PopLog) != ex.Pops {
		t.Errorf("search forensics inconsistent: pops=%d heapMax=%d log=%d",
			ex.Pops, ex.HeapMax, len(ex.PopLog))
	}
	// The explain's own tallies must reconcile with the response's stats
	// block — the same conservation identity the core test pins, proven
	// through JSON round-tripping.
	if got, want := ex.NodeAccesses(), int64(resp.Stats.InternalAccesses+resp.Stats.LeafAccesses); got != want {
		t.Errorf("explain node accesses = %d, stats say %d", got, want)
	}
	if ex.TIAReads != resp.Stats.TIAAccesses {
		t.Errorf("explain TIA reads = %d, stats say %d", ex.TIAReads, resp.Stats.TIAAccesses)
	}
	if ex.Results != len(resp.Results) || len(ex.Convergence) != len(resp.Results) {
		t.Errorf("explain results=%d convergence=%d, response has %d",
			ex.Results, len(ex.Convergence), len(resp.Results))
	}
	if n := len(resp.Results); n > 0 && ex.ActualFk != resp.Results[n-1].Score {
		t.Errorf("explain f(pk) = %v, last result scored %v", ex.ActualFk, resp.Results[n-1].Score)
	}

	// Without explain=1 the response must not carry the object.
	code, body = get(t, s, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128")
	if code != 200 || strings.Contains(body, `"explain"`) {
		t.Errorf("plain query leaked an explain object (status %d)", code)
	}

	_, metrics := get(t, s, "/metrics")
	if !strings.Contains(metrics, "tartree_planner_engine_total{") {
		t.Error("planner decision counter missing from /metrics after an explained query")
	}
	if !strings.Contains(metrics, `tartree_planner_estimate_error_count{quantity="node_accesses"}`) {
		t.Error("planner estimate-error histogram missing from /metrics")
	}
}

// TestServeQueryExplainCacheInterplay runs explain=1 against a cached
// tree: the warm explain (the third query; the second stores the result)
// reports the result-cache hit with zero search work, and
// explain=1&nocache=1 composes — a full search with no cache probes on
// either side of the ledger.
func TestServeQueryExplainCacheInterplay(t *testing.T) {
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lbsn.Generate(spec.Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr, err := d.Build(lbsn.BuildOptions{Metrics: reg, Cache: aggcache.New(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := newServer(tr, reg, nil, log, d.Spec.Start, d.Spec.End, 4)

	const url = "/v1/query?x=50&y=50&k=5&days=128&explain=1"
	var cold, stored, warm, bypass queryResponse
	for _, step := range []struct {
		url  string
		resp *queryResponse
	}{{url, &cold}, {url, &stored}, {url, &warm}, {url + "&nocache=1", &bypass}} {
		code, body := get(t, s, step.url)
		if code != 200 {
			t.Fatalf("GET %s: status %d: %s", step.url, code, body)
		}
		if err := json.Unmarshal([]byte(body), step.resp); err != nil {
			t.Fatal(err)
		}
	}
	if cold.Explain == nil || cold.Explain.ResultCacheHit || cold.Explain.CacheMisses == 0 {
		t.Errorf("cold explain: %+v", cold.Explain)
	}
	if warm.Explain == nil || !warm.Explain.ResultCacheHit {
		t.Fatalf("warm explain does not report the result-cache hit: %+v", warm.Explain)
	}
	if warm.Explain.Pops != 0 || warm.Explain.NodeAccesses() != 0 || warm.Explain.TIAReads != 0 {
		t.Errorf("warm explain shows search work on a result-cache hit: %+v", warm.Explain)
	}
	if warm.Explain.Results != len(warm.Results) {
		t.Errorf("warm explain results = %d, response has %d", warm.Explain.Results, len(warm.Results))
	}
	be := bypass.Explain
	if be == nil || be.ResultCacheHit || be.CacheHits != 0 || be.CacheMisses != 0 {
		t.Errorf("nocache explain still touched the cache: %+v", be)
	}
	if be != nil && be.Pops == 0 {
		t.Error("nocache explain did not search")
	}
}

// TestServeQueryExplainTimeout pins the cancellation contract over HTTP:
// a canceled explain query answers 504 with the explain object embedded —
// the partial counts and the frontier at the moment the search stopped,
// not an error swallow.
func TestServeQueryExplainTimeout(t *testing.T) {
	s, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/query?x=50&y=50&k=5&days=128&timeout_ms=1000&explain=1", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 504 {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
		Explain *explainProbe `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("504 body not JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Error.Message == "" {
		t.Error("504 explain body has no error message")
	}
	if out.Error.Code != "timeout" {
		t.Errorf("504 explain error code %q, want %q", out.Error.Code, "timeout")
	}
	if out.Explain == nil {
		t.Fatal("504 body swallowed the explain object")
	}
	if out.Explain.Err == "" {
		t.Error("canceled explain records no error")
	}
	if out.Explain.Results != 0 {
		t.Errorf("canceled explain claims %d results", out.Explain.Results)
	}
	if out.Explain.FrontierSize == 0 {
		t.Error("canceled explain lost the partial frontier")
	}
}

// explainProbe decodes just the fields the timeout test asserts on.
type explainProbe struct {
	Err          string `json:"error"`
	Results      int    `json:"results"`
	FrontierSize int    `json:"frontier_size"`
}
