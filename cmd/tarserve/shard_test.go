package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/shard"
)

// shardedCluster is the full server wiring under test: n tarserve processes
// in the shard role behind loopback HTTP, one tarserve coordinator fronting
// them, and a standalone single-node server over the same corpus as the
// identity oracle.
type shardedCluster struct {
	coord  *server
	single *server
	shards []*server
	urls   []string
	m      *shard.Map
	d      *lbsn.Dataset
	// shardServers lets tests reach into one shard's HTTP server (e.g. to
	// kill it); newConns[i] counts the connections shard i accepted.
	shardServers []*httptest.Server
	newConns     []atomic.Int64
}

func newShardedCluster(t *testing.T, n int) *shardedCluster {
	t.Helper()
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lbsn.Generate(spec.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Partition(d.EffectivePOIs(0, 0), n, d.World)
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))

	c := &shardedCluster{m: m, d: d, urls: make([]string, n), shardServers: make([]*httptest.Server, n), newConns: make([]atomic.Int64, n)}
	for i := 0; i < n; i++ {
		idx := i
		tr, err := d.Build(lbsn.BuildOptions{
			Keep: func(p core.POI) bool { return m.Locate(p.X, p.Y) == idx },
		})
		if err != nil {
			t.Fatal(err)
		}
		sh := newPendingServer(obs.NewRegistry(), obs.NewTraceRing(8), log, 4)
		sh.enableShard(&shard.Server{
			Data:   shard.TreeViewer{Tree: tr},
			Index:  idx,
			N:      n,
			Region: m.Region(idx),
		}, m)
		sh.finishStartup(tr, nil, d.Spec.Start, d.Spec.End)
		srv := httptest.NewUnstartedServer(sh)
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				c.newConns[idx].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		c.shards = append(c.shards, sh)
		c.shardServers[i] = srv
		c.urls[i] = srv.URL
	}

	reg := obs.NewRegistry()
	co := newPendingServer(reg, obs.NewTraceRing(8), log, 4)
	co.setCoordinator(&shard.Coordinator{Shards: c.urls, Client: newShardClient(cap(co.admission)), Metrics: shard.NewMetrics(reg)}, m)
	co.finishStartup(nil, nil, d.Spec.Start, d.Spec.End)
	c.coord = co

	full, err := d.Build(lbsn.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.single = newServer(full, obs.NewRegistry(), obs.NewTraceRing(8), log, d.Spec.Start, d.Spec.End, 4)
	return c
}

// TestServeShardedQueryMatchesSingleNode runs /v1/query against the
// coordinator and against a single-node server over the same corpus: the
// answers must be exactly identical through the full HTTP wiring (ids in
// the same order, bit-identical scores, aggregates), and the query must be
// transparent (same response shape).
func TestServeShardedQueryMatchesSingleNode(t *testing.T) {
	c := newShardedCluster(t, 3)
	for _, url := range []string{
		"/v1/query?x=50&y=50&k=5&alpha=0.3&days=128",
		"/v1/query?x=20&y=80&k=8&alpha=0.7&days=64",
		"/v1/query?x=85&y=15&k=3&alpha=0.5&days=200",
	} {
		code, body := get(t, c.single, url+"&nocache=1")
		if code != 200 {
			t.Fatalf("single-node %s: status %d: %s", url, code, body)
		}
		var want queryResponse
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}

		code, body = get(t, c.coord, url)
		if code != 200 {
			t.Fatalf("coordinator %s: status %d: %s", url, code, body)
		}
		var got queryResponse
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}

		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s: coordinator returned %d results, single-node %d", url, len(got.Results), len(want.Results))
		}
		for i, w := range want.Results {
			g := got.Results[i]
			if g.POI != w.POI {
				t.Fatalf("%s: rank %d: POI %d, single-node has %d", url, i, g.POI, w.POI)
			}
			if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s: rank %d (POI %d): score %v, single-node %v", url, i, w.POI, g.Score, w.Score)
			}
			if g.Agg != w.Agg {
				t.Fatalf("%s: rank %d (POI %d): agg %d, single-node %d", url, i, w.POI, g.Agg, w.Agg)
			}
		}
	}
}

// TestServeHugeK: k is read straight from the URL, so a k far beyond the
// POI count must answer 200 with every POI — on a single node and through
// the coordinator — instead of sizing an allocation by it.
func TestServeHugeK(t *testing.T) {
	c := newShardedCluster(t, 2)
	want := c.single.tree.Len()
	for name, s := range map[string]*server{"single-node": c.single, "coordinator": c.coord} {
		code, body := get(t, s, "/v1/query?x=50&y=50&k=1073741824&alpha=0.3&days=128")
		if code != 200 {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		var resp queryResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != want {
			t.Errorf("%s: %d results, want all %d POIs", name, len(resp.Results), want)
		}
	}
}

// TestServeShardedExplain: explain=1 through the coordinator carries the
// per-shard attribution table instead of a local plan.
func TestServeShardedExplain(t *testing.T) {
	c := newShardedCluster(t, 3)
	code, body := get(t, c.coord, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128&explain=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explain=1 through the coordinator returned no explain object")
	}
	if len(ex.Shards) != 3 {
		t.Fatalf("explain has %d shard rows, want 3: %+v", len(ex.Shards), ex.Shards)
	}
	var results, accesses, tiaReads int64
	for i, row := range ex.Shards {
		if row.Shard != i {
			t.Errorf("shard row %d reports index %d", i, row.Shard)
		}
		if row.URL != c.urls[i] {
			t.Errorf("shard row %d: url %q, want %q", i, row.URL, c.urls[i])
		}
		results += int64(row.Results)
		accesses += row.NodeAccesses
		tiaReads += row.TIAReads
	}
	if results == 0 || accesses == 0 {
		t.Errorf("shard rows report no work: results=%d node_accesses=%d", results, accesses)
	}
	// The explain's summed shard work is the same ledger the stats block
	// reports — distributed queries stay auditable end to end.
	if want := int64(resp.Stats.InternalAccesses + resp.Stats.LeafAccesses); accesses != want {
		t.Errorf("shard rows sum to %d node accesses, stats say %d", accesses, want)
	}
	if tiaReads != resp.Stats.TIAAccesses {
		t.Errorf("shard rows sum to %d TIA reads, stats say %d", tiaReads, resp.Stats.TIAAccesses)
	}
	if ex.Plan != nil {
		t.Errorf("coordinator explain carries a local plan: %+v", ex.Plan)
	}
}

// TestServeShardedKilledShard: with one shard down, the coordinator answers
// 503 with the unavailable envelope naming the dead shard — never a
// silently partial top-k.
func TestServeShardedKilledShard(t *testing.T) {
	c := newShardedCluster(t, 3)
	c.shardServers[1].Close()

	code, body := get(t, c.coord, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128")
	checkShardError(t, code, body, 1, c.urls[1])
}

// TestServeShardedStalledShard: a shard that accepts the connection and
// never answers costs the coordinator one shard-call timeout, then the 503
// envelope naming that shard — not a /v1/query that hangs as long as the
// shard does.
func TestServeShardedStalledShard(t *testing.T) {
	c := newShardedCluster(t, 2)
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // the coordinator hung up
	}))
	t.Cleanup(stalled.Close)
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	co := newPendingServer(obs.NewRegistry(), obs.NewTraceRing(8), log, 4)
	co.setCoordinator(&shard.Coordinator{
		Shards: []string{c.urls[0], stalled.URL},
		Client: &http.Client{Timeout: 50 * time.Millisecond},
	}, c.m)
	co.finishStartup(nil, nil, c.d.Spec.Start, c.d.Spec.End)

	begin := time.Now()
	code, body := get(t, co, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128")
	// The bound only has to tell the client's timeout from "hung", with room
	// for a slow -race runner.
	if took := time.Since(begin); took > 2*time.Second {
		t.Errorf("a stalled shard held the query for %v", took)
	}
	checkShardError(t, code, body, 1, stalled.URL)
}

// TestShardWireMismatch: the shard hop has one format. A JSON body, or the
// nine query fields without the TSQ1 magic or behind another one, sent to
// a shard get 400; a shard reply that is truncated or carries another
// magic fails the query with the 503 envelope naming that shard, never a
// partial top-k. The same proxy passing the replies on intact serves the
// query.
func TestShardWireMismatch(t *testing.T) {
	c := newShardedCluster(t, 2)
	noMagic := make([]byte, 0, 72)
	for _, v := range []uint64{
		math.Float64bits(50), math.Float64bits(50), 3, math.Float64bits(0.3),
		uint64(c.d.Spec.Start), uint64(c.d.Spec.End), math.Float64bits(40), 1, 1,
	} {
		noMagic = binary.LittleEndian.AppendUint64(noMagic, v)
	}
	for name, body := range map[string][]byte{
		"json":        []byte(`{"x":50,"y":50,"k":3,"alpha":0.3,"start":0,"end":100,"gmax":40,"stamp":{"instance":1,"seq":1}}`),
		"no magic":    noMagic,
		"wrong magic": append([]byte("TSQ0"), noMagic...),
	} {
		rec := httptest.NewRecorder()
		c.shards[0].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "malformed shard query body") {
			t.Errorf("%s body: status %d, want 400 malformed: %s", name, rec.Code, rec.Body.String())
		}
	}

	for name, mangle := range map[string]func([]byte) []byte{
		"intact":      nil,
		"truncated":   func(b []byte) []byte { return b[:len(b)-1] },
		"wrong magic": func(b []byte) []byte { return append([]byte("TSR0"), b[4:]...) },
	} {
		t.Run(name, func(t *testing.T) {
			// A proxy in front of shard 1 that mangles its 200 query replies.
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				req, err := http.NewRequestWithContext(r.Context(), r.Method, c.urls[1]+r.URL.Path, r.Body)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Error(err)
					return
				}
				if mangle != nil && r.URL.Path == "/v1/shard/query" && resp.StatusCode == http.StatusOK {
					b = mangle(b)
				}
				w.WriteHeader(resp.StatusCode)
				w.Write(b)
			}))
			t.Cleanup(proxy.Close)
			log := slog.New(slog.NewTextHandler(io.Discard, nil))
			co := newPendingServer(obs.NewRegistry(), obs.NewTraceRing(8), log, 4)
			co.setCoordinator(&shard.Coordinator{Shards: []string{c.urls[0], proxy.URL}}, c.m)
			co.finishStartup(nil, nil, c.d.Spec.Start, c.d.Spec.End)
			code, body := get(t, co, "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128")
			if mangle == nil {
				if code != http.StatusOK {
					t.Fatalf("status %d through an intact proxy: %s", code, body)
				}
				return
			}
			checkShardError(t, code, body, 1, proxy.URL)
		})
	}
}

// TestServeShardedKeepsConnections: at -max-concurrent 8 the coordinator
// keeps a connection per running query to each shard, so 20 rounds of 8
// concurrent queries open at most 8 connections per shard instead of
// redialling whatever the transport's idle pool could not hold.
func TestServeShardedKeepsConnections(t *testing.T) {
	c := newShardedCluster(t, 2)
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	co := newPendingServer(obs.NewRegistry(), obs.NewTraceRing(8), log, 8)
	co.setCoordinator(&shard.Coordinator{Shards: c.urls, Client: newShardClient(cap(co.admission))}, c.m)
	co.finishStartup(nil, nil, c.d.Spec.Start, c.d.Spec.End)
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				url := fmt.Sprintf("/v1/query?x=%d&y=%d&k=5&alpha=0.3&days=128", 10+10*g, 90-10*round%80)
				if code, body := get(t, co, url); code != 200 {
					t.Errorf("round %d query %d: status %d: %s", round, g, code, body)
				}
			}()
		}
		wg.Wait()
	}
	for i := range c.newConns {
		if got := c.newConns[i].Load(); got > 8 {
			t.Errorf("shard %d accepted %d connections for 8 concurrent queries", i, got)
		}
	}
}

// checkShardError requires a reply to be the 503 unavailable envelope naming
// shard i at url, with no results.
func checkShardError(t *testing.T, code int, body string, i int, url string) {
	t.Helper()
	if code != 503 {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	var out struct {
		Error struct {
			Code    string         `json:"code"`
			Message string         `json:"message"`
			Details map[string]any `json:"details"`
		} `json:"error"`
		Results []queryResult `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("503 body not JSON: %v\n%s", err, body)
	}
	if out.Error.Code != "unavailable" {
		t.Errorf("error code %q, want %q", out.Error.Code, "unavailable")
	}
	if idx, ok := out.Error.Details["shard"].(float64); !ok || int(idx) != i {
		t.Errorf("error details do not name shard %d: %+v", i, out.Error.Details)
	}
	if u, ok := out.Error.Details["url"].(string); !ok || u != url {
		t.Errorf("error details do not carry the shard url %s: %+v", url, out.Error.Details)
	}
	if len(out.Results) != 0 {
		t.Errorf("failed scatter-gather still returned %d results", len(out.Results))
	}
}

// TestServeShardedHealthz pins the role blocks: a shard reports its index
// and owned region, the coordinator its shard list.
func TestServeShardedHealthz(t *testing.T) {
	c := newShardedCluster(t, 3)

	code, body := get(t, c.coord, "/healthz")
	if code != 200 {
		t.Fatalf("coordinator healthz status %d: %s", code, body)
	}
	var ch struct {
		Role  string `json:"role"`
		Shard struct {
			Shards []string `json:"shards"`
		} `json:"shard"`
	}
	if err := json.Unmarshal([]byte(body), &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Role != "coordinator" {
		t.Errorf("coordinator role %q", ch.Role)
	}
	if len(ch.Shard.Shards) != 3 {
		t.Errorf("coordinator healthz lists %d shards, want 3", len(ch.Shard.Shards))
	}

	resp, err := c.shardServers[2].Client().Get(c.urls[2] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("shard healthz status %d", resp.StatusCode)
	}
	var sh struct {
		Role  string `json:"role"`
		Shard struct {
			Index  int `json:"index"`
			Of     int `json:"of"`
			Region struct {
				MinX float64 `json:"min_x"`
				MinY float64 `json:"min_y"`
				MaxX float64 `json:"max_x"`
				MaxY float64 `json:"max_y"`
			} `json:"region"`
		} `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sh); err != nil {
		t.Fatal(err)
	}
	if sh.Role != "shard" {
		t.Errorf("shard role %q", sh.Role)
	}
	if sh.Shard.Index != 2 || sh.Shard.Of != 3 {
		t.Errorf("shard healthz reports %d/%d, want 2/3", sh.Shard.Index, sh.Shard.Of)
	}
	r := c.m.Region(2)
	if sh.Shard.Region.MinX != r.Min[0] || sh.Shard.Region.MaxY != r.Max[1] {
		t.Errorf("shard healthz region [%v %v %v %v] does not match map region %v",
			sh.Shard.Region.MinX, sh.Shard.Region.MinY, sh.Shard.Region.MaxX, sh.Shard.Region.MaxY, r)
	}
}

// TestServeErrorEnvelope is the unified error-contract table: every /v1/*
// failure answers the same JSON envelope with a stable machine-readable
// code, across handlers and statuses.
func TestServeErrorEnvelope(t *testing.T) {
	s, _ := newTestServer(t)
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	pending := newPendingServer(obs.NewRegistry(), obs.NewTraceRing(8), log, 4)

	cases := []struct {
		name     string
		srv      *server
		method   string
		url      string
		body     string
		status   int
		code     string
		contains string
	}{
		{"malformed query", s, "GET", "/v1/query?x=abc&y=50&k=5", "", 400, "invalid_argument", ""},
		{"k out of range", s, "GET", "/v1/query?x=50&y=50&k=0&days=128", "", 400, "invalid_argument", "k must be positive"},
		{"timeout_ms overflowing a duration", s, "GET", "/v1/query?x=50&y=50&k=5&timeout_ms=18446744073710", "", 400, "invalid_argument", "timeout_ms"},
		{"min_lsn without a store", s, "GET", "/v1/query?x=50&y=50&k=5&days=128&min_lsn=9", "", 400, "invalid_argument", "min_lsn"},
		{"shard routes on a standalone server", s, "GET", "/v1/shard/gmax", "", 403, "forbidden", "-shard-of"},
		{"repl routes on a standalone server", s, "GET", "/v1/repl/snapshot", "", 403, "forbidden", "-repl-token"},
		{"unknown v1 route", s, "GET", "/v1/nope", "", 404, "not_found", "/v1/nope"},
		{"ingest on a static server", s, "POST", "/v1/ingest", `{"checkins":[{"poi":1,"ts":1}]}`, 503, "unavailable", ""},
		{"query while recovering", pending, "GET", "/v1/query?x=50&y=50&k=5", "", 503, "unavailable", "recovering"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var code int
			var body string
			if c.method == "POST" {
				code, body = post(t, c.srv, c.url, c.body)
			} else {
				code, body = get(t, c.srv, c.url)
			}
			if code != c.status {
				t.Fatalf("status %d, want %d: %s", code, c.status, body)
			}
			var out struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &out); err != nil {
				t.Fatalf("error body not the JSON envelope: %v\n%s", err, body)
			}
			if out.Error.Code != c.code {
				t.Errorf("code %q, want %q", out.Error.Code, c.code)
			}
			if out.Error.Message == "" {
				t.Error("envelope has no message")
			}
			if c.contains != "" && !strings.Contains(out.Error.Message, c.contains) {
				t.Errorf("message %q does not mention %q", out.Error.Message, c.contains)
			}
		})
	}
}

// TestServeShardedTraceID checks that one trace ID names a sharded query in
// every process it touched: the coordinator propagates its request span to
// the shards, each shard's ring holds /v1/shard/* traces under that ID
// (served by /v1/traces?id=), and the coordinator's own ring — empty in
// every view while the ring hung off the tree a coordinator does not have —
// holds the query among its recent and slowest traces.
func TestServeShardedTraceID(t *testing.T) {
	c := newShardedCluster(t, 3)
	rec := httptest.NewRecorder()
	c.coord.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?x=50&y=50&k=5&alpha=0.3&days=128", nil))
	if rec.Code != 200 {
		t.Fatalf("coordinator query: status %d: %s", rec.Code, rec.Body.String())
	}
	sc, err := obs.ParseTraceparent(rec.Header().Get("traceparent"))
	if err != nil {
		t.Fatal(err)
	}

	recent, slowest := c.coord.traces.Traces(), c.coord.traces.Slowest()
	if len(recent) != 1 || len(slowest) != 1 || recent[0].TraceID != sc.TraceID || slowest[0] != recent[0] {
		t.Fatalf("coordinator ring: recent %d, slowest %d traces, want the query in both", len(recent), len(slowest))
	}
	if q, ok := recent[0].Find("execute").Attr(obs.AttrQuery); !ok {
		t.Errorf("coordinator's execute span carries no query: %+v", recent[0].Find("execute").Attrs)
	} else if !strings.Contains(fmt.Sprint(q), "k=5") {
		t.Errorf("coordinator's query attribute = %v", q)
	}

	for i, sh := range c.shards {
		// A shard finishes its request trace after it has written the
		// response the coordinator was waiting for, so give the last one a
		// moment to land.
		var mine []*obs.FinishedTrace
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			mine = mine[:0]
			for _, ft := range sh.traces.Traces() {
				if ft.TraceID == sc.TraceID {
					mine = append(mine, ft)
				}
			}
			if len(mine) >= 2 { // the first query's global-TIA fetch and the query
				break
			}
		}
		if len(mine) < 2 {
			t.Fatalf("shard %d holds %d traces under the coordinator's ID %s, want >= 2", i, len(mine), sc.TraceID)
		}
		for _, ft := range mine {
			if !strings.Contains(ft.Root().Name, " /v1/shard/") {
				t.Errorf("shard %d: trace %q under the coordinator's ID is not a shard route", i, ft.Root().Name)
			}
		}
		resp, err := http.Get(c.urls[i] + "/v1/traces?id=" + sc.TraceID.String())
		if err != nil {
			t.Fatal(err)
		}
		var one obs.FinishedTrace
		err = json.NewDecoder(resp.Body).Decode(&one)
		resp.Body.Close()
		if resp.StatusCode != 200 || err != nil || one.TraceID != sc.TraceID {
			t.Errorf("shard %d ?id= lookup: status %d, err %v, trace %s", i, resp.StatusCode, err, one.TraceID)
		}
	}
}
