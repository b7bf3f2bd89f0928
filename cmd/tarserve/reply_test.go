package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/client"
	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

// queryResponse is the struct form of a /v1/query reply that the server
// encoded with encoding/json before it appended replies by hand: tests
// decode replies into it, and TestQueryReplyMatchesEncodingJSON checks the
// appended bytes against its encoding.
type queryResponse struct {
	Query struct {
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		K      int     `json:"k"`
		Alpha0 float64 `json:"alpha0"`
		Start  int64   `json:"start"`
		End    int64   `json:"end"`
	} `json:"query"`
	Results []queryResult `json:"results"`
	Stats   struct {
		InternalAccesses int   `json:"internal_accesses"`
		LeafAccesses     int   `json:"leaf_accesses"`
		TIAAccesses      int64 `json:"tia_accesses"`
		TIAPhysical      int64 `json:"tia_physical"`
		Scored           int   `json:"scored"`
		NodeAccesses     int64 `json:"node_accesses"`
		CacheHits        int64 `json:"cache_hits"`
		CacheMisses      int64 `json:"cache_misses"`
		ResultCacheHit   bool  `json:"result_cache_hit"`
	} `json:"stats"`
	ElapsedMicros int64                    `json:"elapsed_us"`
	Trace         map[string]obs.SpanStats `json:"trace,omitempty"`
	Explain       *core.Explain            `json:"explain,omitempty"`
}

type queryResult struct {
	POI   int64   `json:"poi"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Score float64 `json:"score"`
	S0    float64 `json:"s0"`
	S1    float64 `json:"s1"`
	Agg   int64   `json:"agg"`
}

// structForm builds r's queryResponse the way the handler used to.
func structForm(r *queryReply) queryResponse {
	var resp queryResponse
	resp.Query.X, resp.Query.Y = r.q.X, r.q.Y
	resp.Query.K = r.q.K
	resp.Query.Alpha0 = r.q.Alpha0
	resp.Query.Start, resp.Query.End = r.q.Iq.Start, r.q.Iq.End
	resp.Results = make([]queryResult, 0, len(r.results))
	for _, res := range r.results {
		resp.Results = append(resp.Results, queryResult{
			POI: res.POI.ID, X: res.POI.X, Y: res.POI.Y,
			Score: res.Score, S0: res.S0, S1: res.S1, Agg: res.Agg,
		})
	}
	st := r.stats
	resp.Stats.InternalAccesses = st.InternalAccesses
	resp.Stats.LeafAccesses = st.LeafAccesses
	resp.Stats.TIAAccesses = st.TIAAccesses
	resp.Stats.TIAPhysical = st.TIAPhysical
	resp.Stats.Scored = st.Scored
	resp.Stats.NodeAccesses = st.NodeAccesses()
	resp.Stats.CacheHits = st.CacheHits
	resp.Stats.CacheMisses = st.CacheMisses
	resp.Stats.ResultCacheHit = st.ResultCacheHit
	resp.ElapsedMicros = r.elapsedUS
	resp.Explain = r.explain
	if r.trace != nil {
		resp.Trace = make(map[string]obs.SpanStats)
		for _, row := range r.trace {
			resp.Trace[row.Name] = row.SpanStats
		}
	}
	return resp
}

// randomReply draws a reply whose numbers stress encoding/json's formatting:
// signed zero, the 'f'/'e' switch at 1e-6 and 1e21, and whole and subnormal
// values.
func randomReply(r *rand.Rand) *queryReply {
	special := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 3, -42, 1e300,
		5e-324, 0.1, 123456789.125, -1.5e-9}
	num := func() float64 {
		if r.Intn(3) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25))
	}
	rep := &queryReply{
		q: core.Query{X: num(), Y: num(), K: r.Intn(51), Alpha0: num(),
			Iq: tia.Interval{Start: r.Int63n(1 << 40), End: r.Int63() - 1<<62}},
		stats:     &core.QueryStats{},
		elapsedUS: r.Int63n(1 << 30),
	}
	for i := r.Intn(rep.q.K + 1); i > 0; i-- {
		rep.results = append(rep.results, core.Result{
			POI:   core.POI{ID: r.Int63() - 1<<62, X: num(), Y: num()},
			Score: num(), S0: num(), S1: num(), Agg: r.Int63n(1 << 50),
		})
	}
	st := rep.stats
	st.InternalAccesses, st.LeafAccesses, st.Scored = r.Intn(1000), r.Intn(1000), r.Intn(5000)
	st.TIAAccesses, st.TIAPhysical = r.Int63n(1e6), r.Int63n(1e6)
	st.CacheHits, st.CacheMisses, st.ResultCacheHit = r.Int63n(2), r.Int63n(2), r.Intn(2) == 0
	if r.Intn(8) == 0 {
		rep.trace = []obs.SpanStat{{Name: "expand", SpanStats: obs.SpanStats{Count: 3, Total: 4, Max: 2}},
			{Name: "gmax", SpanStats: obs.SpanStats{Count: 1}}}
	}
	if r.Intn(8) == 0 {
		rep.explain = core.NewExplain()
		rep.explain.Pops, rep.explain.ActualFk = r.Intn(100), num()
	}
	return rep
}

// TestQueryReplyMatchesEncodingJSON pins the appended reply to the bytes
// encoding/json writes for its struct form, across random replies.
func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 2000; i++ {
		rep := randomReply(r)
		if i == 0 {
			rep.results = nil // an empty result still prints "results":[]
		}
		want, err := json.Marshal(structForm(rep))
		if err != nil {
			t.Fatal(err)
		}
		buf, err = rep.appendJSON(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, append(want, '\n')) {
			t.Fatalf("reply %d:\n got %s\nwant %s", i, buf, want)
		}
	}
}

// TestQueryReplyRejectsNonFinite: a NaN or an infinity anywhere in a reply
// is an error, never a number JSON cannot carry.
func TestQueryReplyRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep := &queryReply{stats: &core.QueryStats{}, results: []core.Result{{S0: v}}}
		if _, err := rep.appendJSON(nil); err == nil {
			t.Errorf("a reply holding %v encoded without error", v)
		}
	}
}

// TestQueryReplyRemoteRoundTrip: what client.Remote decodes from a served
// reply is bit for bit what the tree answered.
func TestQueryReplyRemoteRoundTrip(t *testing.T) {
	s, d := newTestServer(t)
	hs := httptest.NewServer(s)
	defer hs.Close()
	remote := &client.Remote{BaseURL: hs.URL}
	r := rand.New(rand.NewSource(2))
	nocache := &core.QueryOpts{NoCache: true}
	for i := 0; i < 40; i++ {
		q := core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100, K: []int{1, 10, 50}[i%3],
			Alpha0: []float64{0.05, 0.3, 0.999}[i%3],
			Iq:     tia.Interval{Start: d.Spec.Start, End: d.Spec.End - r.Int63n(d.Spec.End-d.Spec.Start)/2},
		}
		want, _, err := s.tree.QueryCtx(context.Background(), q, nocache)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := remote.QueryCtx(context.Background(), q, nocache)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results over HTTP, %d in process", i, len(got), len(want))
		}
		for j := range want {
			g, w := got[j], want[j]
			same := g.POI.ID == w.POI.ID && g.Agg == w.Agg
			for _, pair := range [][2]float64{{g.POI.X, w.POI.X}, {g.POI.Y, w.POI.Y}, {g.Score, w.Score}, {g.S0, w.S0}, {g.S1, w.S1}} {
				same = same && math.Float64bits(pair[0]) == math.Float64bits(pair[1])
			}
			if !same {
				t.Fatalf("query %d rank %d: %+v over HTTP, %+v in process", i, j, g, w)
			}
		}
	}
}

// TestServeNonFiniteQuery: a query point or weight with no finite value is
// a 400, and a reply whose numbers overflow is the 500 envelope (503 through
// a coordinator, whose shard failed to answer) — never a 200 with an empty
// body.
func TestServeNonFiniteQuery(t *testing.T) {
	c := newShardedCluster(t, 2)
	for _, tc := range []struct {
		url                 string
		single, coordinator int
	}{
		{"/v1/query?x=NaN&y=50", 400, 400},
		{"/v1/query?x=50&y=50&alpha=NaN", 400, 400},
		{"/v1/query?x=1e300&y=1e300", 500, 503},
	} {
		for name, want := range map[string]int{"single-node": tc.single, "coordinator": tc.coordinator} {
			s := c.single
			if name == "coordinator" {
				s = c.coord
			}
			code, body := get(t, s, tc.url)
			if code != want || !strings.Contains(body, `"error"`) {
				t.Errorf("%s %s: status %d, want %d with the error envelope: %q", name, tc.url, code, want, body)
			}
		}
	}
}

// newBenchServer is the server the ServeQuery benchmarks drive: GS ×0.02
// with a 1 MiB result cache and tarserve's default slow-query threshold, so
// a fast request writes no access line.
func newBenchServer(b *testing.B) (*server, *lbsn.Dataset) {
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		b.Fatal(err)
	}
	d, err := lbsn.Generate(spec.Scaled(0.02))
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr, err := d.Build(lbsn.BuildOptions{Metrics: reg, Cache: aggcache.New(1 << 20)})
	if err != nil {
		b.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := newServer(tr, reg, obs.NewTraceRing(64), log, d.Spec.Start, d.Spec.End, 4)
	s.slowQuery = 250 * time.Millisecond
	return s, d
}

// BenchmarkServeQueryHit is a result-cache hit through ServeHTTP: what the
// server spends on a request whose answer it already holds.
func BenchmarkServeQueryHit(b *testing.B) {
	s, _ := newBenchServer(b)
	req := httptest.NewRequest("GET", "/v1/query?x=50&y=50&k=10&days=128", nil)
	// The cache stores a result the second time it is computed.
	s.ServeHTTP(httptest.NewRecorder(), req)
	s.ServeHTTP(httptest.NewRecorder(), req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"result_cache_hit":true`)) {
			b.Fatalf("not a cache hit: %d %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServeQueryMiss is a stream of distinct queries through
// ServeHTTP, none of which repeats: the search, the reply and what the
// result cache costs a query it never serves again.
func BenchmarkServeQueryMiss(b *testing.B) {
	s, d := newBenchServer(b)
	reqs := make([]*http.Request, b.N)
	for i, q := range d.Queries(b.N, 10, 0.3, 1) {
		reqs[i] = httptest.NewRequest("GET", fmt.Sprintf("/v1/query?x=%v&y=%v&k=%d&alpha=%v&start=%d&end=%d",
			q.X, q.Y, q.K, q.Alpha0, q.Iq.Start, q.Iq.End), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, req := range reqs {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 || bytes.Contains(rec.Body.Bytes(), []byte(`"result_cache_hit":true`)) {
			b.Fatalf("not a cache miss: %d %s", rec.Code, rec.Body)
		}
	}
}
