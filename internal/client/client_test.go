package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"tartree/internal/core"
	"tartree/internal/httpapi"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

// reply is a /v1/query answer as tarserve writes it.
const reply = `{"query":{"x":50,"y":40,"k":2,"alpha0":0.3,"start":100,"end":900},` +
	`"results":[{"poi":7,"x":49.5,"y":40.25,"score":0.125,"s0":0.0625,"s1":0.5,"agg":12},` +
	`{"poi":3,"x":52,"y":38,"score":0.25,"s0":0.1,"s1":0.6,"agg":9}],` +
	`"stats":{"internal_accesses":4,"leaf_accesses":6,"tia_accesses":11,"tia_physical":2,"scored":90,` +
	`"node_accesses":21,"cache_hits":0,"cache_misses":1,"result_cache_hit":false},` +
	`"elapsed_us":321,"explain":{"pops":5,"heap_max":40,"frontier_size":8,"tia_reads":11,` +
	`"tia_physical":2,"cache_hits":0,"cache_misses":1,"results":2,"actual_fk":0.25}}` + "\n"

// request is what the test server saw of one call.
type request struct {
	query       url.Values
	traceparent string
}

// serve starts a server that records each request and answers with status
// and body, and returns it with the record.
func serve(t *testing.T, status int, body string) (*httptest.Server, *request) {
	t.Helper()
	seen := new(request)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			t.Errorf("request to %s, want /v1/query", r.URL.Path)
		}
		*seen = request{query: r.URL.Query(), traceparent: r.Header.Get("traceparent")}
		if status != http.StatusOK {
			httpapi.WriteStatusError(w, status, body)
			return
		}
		httpapi.WriteBody(w, status, []byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv, seen
}

var testQuery = core.Query{X: 50, Y: 40, K: 2, Alpha0: 0.3, Iq: tia.Interval{Start: 100, End: 900}}

// TestDoDecodesReply: Do hands back the results, stats, server time and
// explain of the reply, and QueryCtx the results and stats.
func TestDoDecodesReply(t *testing.T) {
	srv, _ := serve(t, http.StatusOK, reply)
	r := &Remote{BaseURL: srv.URL}
	ex := core.NewExplain()
	resp, err := r.Do(context.Background(), testQuery, &core.QueryOpts{Explain: ex})
	if err != nil {
		t.Fatal(err)
	}
	wantResults := []core.Result{
		{POI: core.POI{ID: 7, X: 49.5, Y: 40.25}, Score: 0.125, S0: 0.0625, S1: 0.5, Agg: 12},
		{POI: core.POI{ID: 3, X: 52, Y: 38}, Score: 0.25, S0: 0.1, S1: 0.6, Agg: 9},
	}
	wantStats := core.QueryStats{InternalAccesses: 4, LeafAccesses: 6, TIAAccesses: 11, TIAPhysical: 2,
		Scored: 90, CacheMisses: 1}
	if !reflect.DeepEqual(resp.Results, wantResults) {
		t.Errorf("results %+v, want %+v", resp.Results, wantResults)
	}
	if resp.Stats != wantStats {
		t.Errorf("stats %+v, want %+v", resp.Stats, wantStats)
	}
	if resp.ElapsedMicros != 321 {
		t.Errorf("elapsed %d µs, want 321", resp.ElapsedMicros)
	}
	wantExplain := core.Explain{Pops: 5, HeapMax: 40, FrontierSize: 8, TIAReads: 11, TIAPhysical: 2,
		CacheMisses: 1, Results: 2, ActualFk: 0.25}
	if resp.Explain == nil || !reflect.DeepEqual(*resp.Explain, wantExplain) {
		t.Errorf("explain %+v, want %+v", resp.Explain, wantExplain)
	}
	if !reflect.DeepEqual(*ex, wantExplain) {
		t.Errorf("the caller's recorder holds %+v, want %+v", *ex, wantExplain)
	}

	res, stats, err := r.QueryCtx(context.Background(), testQuery, nil)
	if err != nil || !reflect.DeepEqual(res, wantResults) || stats != wantStats {
		t.Errorf("QueryCtx = %+v, %+v, %v", res, stats, err)
	}
}

// TestDoForwardsOptions: the query, nocache, explain, min_lsn, days and the
// caller's traceparent reach the server, and each only when asked for.
func TestDoForwardsOptions(t *testing.T) {
	srv, seen := serve(t, http.StatusOK, reply)
	root := obs.StartTrace("caller", obs.SpanContext{}, obs.NewTraceRing(1))
	r := &Remote{BaseURL: srv.URL, MinLSN: 7, Days: 30}
	opts := &core.QueryOpts{NoCache: true, Explain: core.NewExplain(), Span: root}
	if _, err := r.Do(context.Background(), testQuery, opts); err != nil {
		t.Fatal(err)
	}
	want := url.Values{"x": {"50"}, "y": {"40"}, "k": {"2"}, "alpha": {"0.3"},
		"days": {"30"}, "nocache": {"1"}, "explain": {"1"}, "min_lsn": {"7"}}
	if !reflect.DeepEqual(seen.query, want) {
		t.Errorf("query string %v, want %v", seen.query, want)
	}
	if tp := root.Context().Traceparent(); seen.traceparent != tp {
		t.Errorf("traceparent %q, want the caller's %q", seen.traceparent, tp)
	}

	r = &Remote{BaseURL: srv.URL}
	if _, err := r.Do(context.Background(), testQuery, nil); err != nil {
		t.Fatal(err)
	}
	want = url.Values{"x": {"50"}, "y": {"40"}, "k": {"2"}, "alpha": {"0.3"}, "start": {"100"}, "end": {"900"}}
	if !reflect.DeepEqual(seen.query, want) || seen.traceparent != "" {
		t.Errorf("plain call sent %v with traceparent %q, want %v and none", seen.query, seen.traceparent, want)
	}
}

// TestDoMapsErrors: a 400 is core.ErrInvalid, a 504 core.ErrCanceled, and
// any other failure an *httpapi.Error carrying its status and code.
func TestDoMapsErrors(t *testing.T) {
	for _, tc := range []struct {
		status   int
		sentinel error
		code     string
	}{
		{http.StatusBadRequest, core.ErrInvalid, httpapi.CodeInvalidArgument},
		{http.StatusGatewayTimeout, core.ErrCanceled, httpapi.CodeTimeout},
		{http.StatusServiceUnavailable, nil, httpapi.CodeUnavailable},
		{http.StatusUnprocessableEntity, nil, httpapi.CodeUnprocessable},
	} {
		srv, _ := serve(t, tc.status, "refused")
		_, err := (&Remote{BaseURL: srv.URL}).Do(context.Background(), testQuery, nil)
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("%d: err = %v, want %v", tc.status, err, tc.sentinel)
		}
		for _, s := range []error{core.ErrInvalid, core.ErrCanceled} {
			if s != tc.sentinel && errors.Is(err, s) {
				t.Errorf("%d: err = %v also matches %v", tc.status, err, s)
			}
		}
		var herr *httpapi.Error
		if !errors.As(err, &herr) || herr.Status != tc.status || herr.Code != tc.code || herr.Message != "refused" {
			t.Errorf("%d: err = %#v, want an *httpapi.Error with code %q", tc.status, err, tc.code)
		}
	}
}
