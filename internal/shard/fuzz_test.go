package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tartree/internal/core"
	"tartree/internal/lbsn"
)

// FuzzShardQueryBody drives HandleQuery with arbitrary bodies. Every body
// gets 200, 400, 409 or 413 — never a 500, never a panic — and a 200
// carries at most the shard's POIs. A 200 for a k far above the POI count
// allocates in proportion to the POIs, not to k. The token STAMP in a body
// stands for the shard's current stamp, so mutations of a seed that keeps
// it reach the search.
func FuzzShardQueryBody(f *testing.F) {
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		f.Fatal(err)
	}
	tr, err := spec.Scaled(0.02).Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256})
	if err != nil {
		f.Fatal(err)
	}
	tr.Freeze()
	srv := &Server{Data: TreeViewer{Tree: tr}, Index: 0, N: 1}
	mux := http.NewServeMux()
	srv.Register(mux)
	stamp, err := json.Marshal(tr.GlobalStamp())
	if err != nil {
		f.Fatal(err)
	}
	iq := fmt.Sprintf(`"start":%d,"end":%d`, spec.Start, spec.End)
	for _, body := range []string{
		`{"x":50,"y":50,"k":3,"alpha":0.3,` + iq + `,"gmax":40,"stamp":STAMP}`,
		`{"x":50,"y":50,"k":1099511627776,"alpha":0.3,` + iq + `,"gmax":40,"stamp":STAMP}`,
		`{"x":1e300,"y":-1e300,"k":5,"alpha":0.5,` + iq + `,"gmax":40,"stamp":STAMP}`,
		`{"x":50,"y":50,"k":5,"alpha":0.5,` + iq + `,"gmax":5e-324,"stamp":STAMP}`,
		`{"x":50,"y":50,"k":5,"alpha":0.5,"start":-9223372036854775808,"end":9223372036854775807,"gmax":-1,"stamp":STAMP}`,
		`{"x":50,"y":50,"k":3,"alpha":0.3,` + iq + `,"gmax":40}`,
		`{"x":50,"y":50,"k":0,"alpha":0.3,` + iq + `,"stamp":STAMP}`,
		`{"x":50,`,
		``,
	} {
		f.Add([]byte(body))
	}
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(bytes.ReplaceAll(body, []byte("STAMP"), stamp))))
		return rec
	}
	if rec := serve([]byte(`{"x":50,"y":50,"k":3,"alpha":0.3,` + iq + `,"gmax":40,"stamp":STAMP}`)); rec.Code != http.StatusOK {
		f.Fatalf("the first seed: status %d: %s", rec.Code, rec.Body.String())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req queryRequest
		hugeK := json.Unmarshal(bytes.ReplaceAll(body, []byte("STAMP"), stamp), &req) == nil && req.K > 1<<20
		var before, after runtime.MemStats
		if hugeK {
			runtime.ReadMemStats(&before)
		}
		rec := serve(body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q: %.300s", rec.Code, body, rec.Body.String())
		}
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("a 200 that does not decode: %v", err)
		}
		if len(resp.Candidates) > tr.Len() {
			t.Fatalf("%d candidates from %d POIs", len(resp.Candidates), tr.Len())
		}
		if hugeK {
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(1<<20+tr.Len()<<12) {
				t.Fatalf("k = %d over %d POIs allocated %d B", req.K, tr.Len(), grew)
			}
		}
	})
}
