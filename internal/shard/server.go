package shard

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/httpapi"
	"tartree/internal/tia"
)

// Wire types of the coordinator⇄shard protocol. The global-TIA fetch is
// JSON; a query and its 200 reply travel in the fixed-width bodies of
// wire.go. Candidates are whole core.Results, so the coordinator hands them
// back without a second lookup; stats are the shard's whole search work for
// the query.

type gmaxResponse struct {
	Index     int              `json:"index"`
	Of        int              `json:"of"`
	Records   []tia.Record     `json:"records"`
	Stamp     core.GlobalStamp `json:"stamp"`
	Semantics int              `json:"semantics"`
	AggFunc   int              `json:"agg_func"`
}

type queryRequest struct {
	X, Y       float64
	K          int
	Alpha      float64
	Start, End int64
	Gmax       float64
	Stamp      core.GlobalStamp
}

type queryResponse struct {
	Candidates []core.Result
	Stats      core.QueryStats
}

// Viewer runs a function against the shard's tree under whatever lock
// guards it. *wal.Store satisfies it; TreeViewer adapts a bare tree.
type Viewer interface {
	View(func(t *core.Tree))
}

// TreeViewer is the trivial Viewer over an externally-synchronized tree.
type TreeViewer struct{ Tree *core.Tree }

// View implements Viewer.
func (v TreeViewer) View(f func(t *core.Tree)) { f(v.Tree) }

// Server is the shard-side half of scatter-gather: it owns this shard's
// POI subset (indexed over the full world) and answers each query in one
// stateless request. The shard runs its local best-first search under the
// coordinator's global gmax inside one Viewer.View call and returns its
// top k in core.CompareResults' order, which is a total order: every global
// top-k POI is among its own shard's top k. In the same View it refuses a
// query whose stamp is not its global TIA's: that gmax is stale.
type Server struct {
	// Data guards the shard's tree; Index/N/Region describe its place in
	// the shard map (healthz reports them).
	Data    Viewer
	Index   int
	N       int
	Region  geo.Rect
	Metrics *Metrics
}

// Register mounts the shard routes on mux. cmd/tarserve mounts the same
// handlers behind its role gate instead.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/shard/gmax", s.HandleGmax)
	mux.HandleFunc("POST /v1/shard/query", s.HandleQuery)
}

// HandleGmax serves the shard's part of the distributed normalizer: its
// whole global TIA and that TIA's stamp, plus the shard's place in the map
// and its aggregation configuration, so the coordinator can verify all
// shards agree.
func (s *Server) HandleGmax(w http.ResponseWriter, r *http.Request) {
	var resp gmaxResponse
	s.Data.View(func(t *core.Tree) {
		opts := t.Options()
		resp = gmaxResponse{
			Index:     s.Index,
			Of:        s.N,
			Records:   t.GlobalRecords(),
			Stamp:     t.GlobalStamp(),
			Semantics: int(opts.Semantics),
			AggFunc:   int(opts.AggFunc),
		}
	})
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// maxQueryBody bounds a POST /v1/shard/query body, which is queryBodyLen
// bytes; a larger one than this is refused with 413 before it is all read
// into memory.
const maxQueryBody = 64 << 10

// HandleQuery answers one query: the shard's top k under the supplied
// gmax, as a TSR1 body of at most k candidates (fewer when the shard holds
// fewer POIs). A query whose stamp is not the shard's current one gets the
// 409 conflict envelope with the current stamp in its details, and no
// search runs. A body that is not a TSQ1 query, or does not validate, or
// whose scores overflow, gets 400; one over maxQueryBody 413.
func (s *Server) HandleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	var req queryRequest
	if err == nil {
		req, err = decodeQuery(body)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpapi.WriteStatusError(w, status, "malformed shard query body: "+err.Error())
		return
	}
	q := core.Query{
		X: req.X, Y: req.Y, K: req.K, Alpha0: req.Alpha,
		Iq: tia.Interval{Start: req.Start, End: req.End},
	}
	if err := q.Validate(); err != nil {
		httpapi.WriteStatusError(w, http.StatusBadRequest, err.Error())
		return
	}
	var resp queryResponse
	var stamp core.GlobalStamp
	s.Data.View(func(t *core.Tree) {
		if stamp = t.GlobalStamp(); stamp != req.Stamp {
			return
		}
		resp.Candidates, err = t.SearchTopK(q, core.SearchOptions{Gmax: &req.Gmax, Stats: &resp.Stats, Ctx: r.Context()})
	})
	if stamp != req.Stamp {
		httpapi.WriteError(w, http.StatusConflict, httpapi.CodeConflict,
			"the global TIA changed since the coordinator fetched it", map[string]any{"stamp": stamp})
		return
	}
	if err != nil {
		httpapi.WriteStatusError(w, http.StatusInternalServerError, err.Error())
		return
	}
	for _, c := range resp.Candidates {
		if math.IsInf(c.Score, 0) || math.IsNaN(c.Score) {
			// A point far outside the world, or a gmax near zero: the
			// scores overflow and rank nothing.
			httpapi.WriteStatusError(w, http.StatusBadRequest, "the query's scores overflow float64")
			return
		}
	}
	s.Metrics.addCandidates(len(resp.Candidates))
	b := encodeReply(&resp)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the status is out: a failed write has no one to tell
}
