// Package client is the HTTP side of core.Querier: a Remote forwards
// QueryCtx calls to a tarserve /v1/query endpoint — leader, follower,
// or shard coordinator, the caller cannot tell — propagating the W3C
// traceparent of the caller's span and the read-your-writes min_lsn
// watermark, and decoding errors out of the unified envelope back into
// the sentinel errors (core.ErrInvalid, core.ErrCanceled) local callers
// already branch on.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"tartree/internal/core"
	"tartree/internal/httpapi"
)

// Remote queries a tarserve instance over HTTP. The zero value is unusable;
// BaseURL is required.
type Remote struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// Client overrides http.DefaultClient.
	Client *http.Client
	// MinLSN, when non-zero, is forwarded as min_lsn so a follower holds
	// the query until it has applied at least that LSN (read-your-writes).
	MinLSN uint64
	// Days, when positive, replaces the query's explicit interval with the
	// server-side "last N days" convenience parameter (anchored at the
	// server's data end) — for callers that do not know the remote span.
	Days int64
}

// Response is the full decoded answer of one remote query — everything
// /v1/query returns beyond the ([]Result, QueryStats) pair, for callers
// like tarquery that render server time and explains.
type Response struct {
	Results       []core.Result
	Stats         core.QueryStats
	ElapsedMicros int64
	Explain       *core.Explain
}

// wireResponse mirrors cmd/tarserve's queryResponse JSON.
type wireResponse struct {
	Results []struct {
		POI   int64   `json:"poi"`
		X     float64 `json:"x"`
		Y     float64 `json:"y"`
		Score float64 `json:"score"`
		S0    float64 `json:"s0"`
		S1    float64 `json:"s1"`
		Agg   int64   `json:"agg"`
	} `json:"results"`
	Stats struct {
		InternalAccesses int   `json:"internal_accesses"`
		LeafAccesses     int   `json:"leaf_accesses"`
		TIAAccesses      int64 `json:"tia_accesses"`
		TIAPhysical      int64 `json:"tia_physical"`
		Scored           int   `json:"scored"`
		CacheHits        int64 `json:"cache_hits"`
		CacheMisses      int64 `json:"cache_misses"`
		ResultCacheHit   bool  `json:"result_cache_hit"`
	} `json:"stats"`
	ElapsedMicros int64         `json:"elapsed_us"`
	Explain       *core.Explain `json:"explain"`
}

// Do runs one query and returns the full response. opts contributes
// NoCache (forwarded as nocache=1), Explain (forwarded as explain=1 and
// filled from the response), and Span (its context rides the traceparent
// header so the server's span tree links to the caller's).
func (r *Remote) Do(ctx context.Context, q core.Query, opts *core.QueryOpts) (*Response, error) {
	if opts == nil {
		opts = &core.QueryOpts{}
	}
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(q.X, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(q.Y, 'g', -1, 64))
	v.Set("k", strconv.Itoa(q.K))
	v.Set("alpha", strconv.FormatFloat(q.Alpha0, 'g', -1, 64))
	if r.Days > 0 {
		v.Set("days", strconv.FormatInt(r.Days, 10))
	} else {
		v.Set("start", strconv.FormatInt(q.Iq.Start, 10))
		v.Set("end", strconv.FormatInt(q.Iq.End, 10))
	}
	if opts.NoCache {
		v.Set("nocache", "1")
	}
	if opts.Explain != nil {
		v.Set("explain", "1")
	}
	if r.MinLSN > 0 {
		v.Set("min_lsn", strconv.FormatUint(r.MinLSN, 10))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.BaseURL+"/v1/query?"+v.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if opts.Span != nil {
		req.Header.Set("traceparent", opts.Span.Context().Traceparent())
	}
	client := r.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrCanceled, ctx.Err())
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		herr := httpapi.ReadError(resp)
		switch resp.StatusCode {
		case http.StatusBadRequest:
			return nil, fmt.Errorf("%w: %w", core.ErrInvalid, herr)
		case http.StatusGatewayTimeout:
			return nil, fmt.Errorf("%w: %w", core.ErrCanceled, herr)
		}
		return nil, herr
	}
	var wire wireResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return nil, fmt.Errorf("client: decoding %s response: %w", r.BaseURL, err)
	}
	out := &Response{ElapsedMicros: wire.ElapsedMicros, Explain: wire.Explain}
	out.Results = make([]core.Result, len(wire.Results))
	for i, res := range wire.Results {
		out.Results[i] = core.Result{
			POI:   core.POI{ID: res.POI, X: res.X, Y: res.Y},
			Score: res.Score, S0: res.S0, S1: res.S1, Agg: res.Agg,
		}
	}
	out.Stats.InternalAccesses = wire.Stats.InternalAccesses
	out.Stats.LeafAccesses = wire.Stats.LeafAccesses
	out.Stats.TIAAccesses = wire.Stats.TIAAccesses
	out.Stats.TIAPhysical = wire.Stats.TIAPhysical
	out.Stats.Scored = wire.Stats.Scored
	out.Stats.CacheHits = wire.Stats.CacheHits
	out.Stats.CacheMisses = wire.Stats.CacheMisses
	out.Stats.ResultCacheHit = wire.Stats.ResultCacheHit
	if opts.Explain != nil && wire.Explain != nil {
		*opts.Explain = *wire.Explain
	}
	return out, nil
}

// QueryCtx implements core.Querier over HTTP.
func (r *Remote) QueryCtx(ctx context.Context, q core.Query, opts *core.QueryOpts) ([]core.Result, core.QueryStats, error) {
	resp, err := r.Do(ctx, q, opts)
	if err != nil {
		return nil, core.QueryStats{}, err
	}
	return resp.Results, resp.Stats, nil
}
