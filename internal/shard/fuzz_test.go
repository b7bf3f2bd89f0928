package shard

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tartree/internal/core"
	"tartree/internal/lbsn"
)

// FuzzShardQueryBody drives HandleQuery with arbitrary bodies. Every body
// gets 200, 400, 409 or 413 — never a 500, never a panic — and a 200 is a
// TSR1 reply carrying exactly min(k, POIs) candidates, every score finite. A 200
// for a k far above the POI count allocates in proportion to the POIs, not
// to k. A body of the query's length whose stamp.instance is even carries
// the shard's current stamp instead of its own, so mutations of such a
// seed reach the search.
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
	stamp := tr.GlobalStamp()
	stale := core.GlobalStamp{Instance: 1} // odd: kept as it is
	query := func(x, y float64, k int, alpha float64, start, end int64, gmax float64, st core.GlobalStamp) []byte {
		return appendQuery(nil, &queryRequest{X: x, Y: y, K: k, Alpha: alpha, Start: start, End: end, Gmax: gmax, Stamp: st})
	}
	first := query(50, 50, 3, 0.3, spec.Start, spec.End, 40, core.GlobalStamp{})
	for _, body := range [][]byte{
		first,
		query(50, 50, 1<<40, 0.3, spec.Start, spec.End, 40, core.GlobalStamp{}),
		query(1e300, -1e300, 5, 0.5, spec.Start, spec.End, 40, core.GlobalStamp{}),
		query(50, 50, 5, 0.5, spec.Start, spec.End, 5e-324, core.GlobalStamp{}),
		query(50, 50, 5, 0.5, math.MinInt64, math.MaxInt64, -1, core.GlobalStamp{}),
		query(50, 50, 3, 0.3, spec.Start, spec.End, 40, stale),
		query(50, 50, 0, 0.3, spec.Start, spec.End, 40, core.GlobalStamp{}),
		first[:20],
		nil,
		[]byte(`{"x":50,"y":50,"k":3,"alpha":0.3,"gmax":40}`),
		append([]byte("TSR1"), first[4:]...),
	} {
		f.Add(body)
	}
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(body)))
		return rec
	}
	// withStamp returns body, or a copy carrying the current stamp.
	withStamp := func(body []byte) []byte {
		if len(body) != queryBodyLen || body[queryBodyLen-16]&1 != 0 {
			return body
		}
		b := append([]byte(nil), body...)
		binary.LittleEndian.PutUint64(b[queryBodyLen-16:], stamp.Instance)
		binary.LittleEndian.PutUint64(b[queryBodyLen-8:], stamp.Seq)
		return b
	}
	if rec := serve(withStamp(first)); rec.Code != http.StatusOK {
		f.Fatalf("the first seed: status %d: %s", rec.Code, rec.Body.String())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		body = withStamp(body)
		req, err := decodeQuery(body)
		hugeK := err == nil && req.K > 1<<20
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
		resp, err := decodeReply(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("a 200 that does not decode: %v", err)
		}
		if want := min(req.K, tr.Len()); len(resp.Candidates) != want {
			t.Fatalf("%d candidates for k = %d from %d POIs, want %d", len(resp.Candidates), req.K, tr.Len(), want)
		}
		for _, c := range resp.Candidates {
			if math.IsInf(c.Score, 0) || math.IsNaN(c.Score) {
				t.Fatalf("a 200 carries the overflowed score %v", c.Score)
			}
		}
		if hugeK {
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(1<<20+tr.Len()<<12) {
				t.Fatalf("k = %d over %d POIs allocated %d B", req.K, tr.Len(), grew)
			}
		}
	})
}

// FuzzShardReply drives the coordinator's reply decoder with arbitrary
// bodies. It never panics, refuses every body whose magic is not TSR1 or
// whose length is not the header plus the declared count of candidates,
// and allocates no more than the body's length: the candidates are sized
// from the body, never from the count it declares.
func FuzzShardReply(f *testing.F) {
	two := encodeReply(&queryResponse{
		Candidates: []core.Result{
			{POI: core.POI{ID: 7, X: 1, Y: 2}, Score: 0.25, S0: 0.1, S1: 0.4, Agg: 3},
			{POI: core.POI{ID: 9, X: 3, Y: 4}, Score: 0.5, S0: 0.2, S1: 0.9, Agg: 1},
		},
		Stats: core.QueryStats{InternalAccesses: 3, LeafAccesses: 2, TIAAccesses: 5, TIAPhysical: 1, Scored: 11},
	})
	huge := append([]byte(nil), two...)
	binary.LittleEndian.PutUint64(huge[4:], 1<<60)
	for _, body := range [][]byte{
		two,
		encodeReply(&queryResponse{}),
		huge,
		two[:len(two)-1],
		append(append([]byte(nil), two...), 0),
		two[:replyHeaderLen-1],
		append([]byte("TSQ1"), two[4:]...),
		[]byte(`{"candidates":[],"stats":{}}`),
		nil,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := decodeReply(body)
		runtime.ReadMemStats(&after)
		n := (len(body) - replyHeaderLen) / candidateLen
		fits := len(body) >= replyHeaderLen && string(body[:4]) == replyMagic &&
			(len(body)-replyHeaderLen)%candidateLen == 0 &&
			binary.LittleEndian.Uint64(body[4:]) == uint64(n)
		if fits != (err == nil) {
			t.Fatalf("%d-byte body %.16q: err = %v, want it refused: %v", len(body), body, err, !fits)
		}
		if err == nil && len(resp.Candidates) != n {
			t.Fatalf("%d candidates from a body holding %d", len(resp.Candidates), n)
		}
		if cap(resp.Candidates)*candidateLen > max(len(body)-replyHeaderLen, 0) {
			t.Fatalf("room for %d candidates from a %d-byte body", cap(resp.Candidates), len(body))
		}
		// The allocator rounds a small slice up to its size class (≤ 1/8)
		// and a large one to whole 8 KiB pages.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(body)+len(body)/8+8<<10) {
			t.Fatalf("a %d-byte body allocated %d B", len(body), grew)
		}
	})
}
