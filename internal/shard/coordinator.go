package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"tartree/internal/core"
	"tartree/internal/httpapi"
	"tartree/internal/obs"
	"tartree/internal/pagestore"
	"tartree/internal/tia"
)

// ShardError reports that one shard failed mid-query. The coordinator
// never degrades to a partial top-k: any shard failure aborts the whole
// query with this error, and cmd/tarserve maps it to a 503 envelope naming
// the shard — a loud error beats a silently wrong answer.
type ShardError struct {
	Shard int
	URL   string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.URL, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Coordinator fans a kNNTA query out to every shard and merges the
// candidates into the global top-k, implementing core.Querier so servers
// and CLIs treat a sharded cluster exactly like a local tree.
//
// A query costs two parallel requests per shard: the gmax exchange, then
// one stateless query carrying the global gmax. Each shard answers its top
// k plus the results tied with its kth score; the coordinator sorts the
// union by (score, id) and keeps k — the id tiebreak makes the distributed
// answer deterministic where pop order is not.
type Coordinator struct {
	// Shards are the shard base URLs in shard-map order.
	Shards []string
	// Client is the HTTP client used for shard calls (http.DefaultClient
	// when nil).
	Client  *http.Client
	Metrics *Metrics
}

// QueryCtx implements core.Querier.
func (c *Coordinator) QueryCtx(ctx context.Context, q core.Query, opts *core.QueryOpts) ([]core.Result, core.QueryStats, error) {
	res, stats, shards, err := c.Query(ctx, q)
	if opts != nil {
		if opts.Explain != nil {
			opts.Explain.Shards = shards
			opts.Explain.Finish(res, &stats, err)
		}
		core.AnnotateSpan(opts.Span, q, len(res), &stats, err, opts.Explain)
	}
	return res, stats, err
}

// Query runs one scatter-gather query and additionally returns the
// per-shard attribution rows (the explain's Shards section).
func (c *Coordinator) Query(ctx context.Context, q core.Query) ([]core.Result, core.QueryStats, []core.ExplainShard, error) {
	var stats core.QueryStats
	if err := q.Validate(); err != nil {
		return nil, stats, nil, err
	}
	if len(c.Shards) == 0 {
		return nil, stats, nil, fmt.Errorf("%w: coordinator has no shards", core.ErrInvalid)
	}
	c.Metrics.addQuery()
	rows := make([]core.ExplainShard, len(c.Shards))
	for i, url := range c.Shards {
		rows[i] = core.ExplainShard{Shard: i, URL: url}
	}

	path := fmt.Sprintf("/v1/shard/gmax?start=%d&end=%d", q.Iq.Start, q.Iq.End)
	gmaxes, _, err := scatter[gmaxResponse](ctx, c, http.MethodGet, path, nil)
	if err != nil {
		return nil, stats, rows, err
	}
	gmax, err := c.mergeGmax(q, gmaxes)
	if err != nil {
		return nil, stats, rows, err
	}

	body, err := json.Marshal(queryRequest{
		X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
		Start: q.Iq.Start, End: q.Iq.End, Gmax: gmax,
	})
	if err != nil {
		return nil, stats, rows, fmt.Errorf("%w: %v", core.ErrInvalid, err)
	}
	c.Metrics.addFanout(len(c.Shards))
	replies, took, err := scatter[queryResponse](ctx, c, http.MethodPost, "/v1/shard/query", body)
	var straggler time.Duration
	for i := range rows {
		// One CompShard read per shard per query: the distributed analogue
		// of a node access, attributed at level = shard index.
		stats.IO.AddRead(pagestore.NewIOTag(pagestore.CompShard, i), true)
		rows[i].ElapsedMicros = took[i].Microseconds()
		straggler = max(straggler, took[i])
	}
	c.Metrics.observeStraggler(straggler.Seconds())
	if err != nil {
		return nil, stats, rows, err
	}

	var all []candidate
	for i, rp := range replies {
		all = append(all, rp.Candidates...)
		rows[i].Results = len(rp.Candidates)
		rows[i].NodeAccesses = int64(rp.Stats.Internal + rp.Stats.Leaf)
		rows[i].TIAReads = rp.Stats.TIAReads
		stats.InternalAccesses += rp.Stats.Internal
		stats.LeafAccesses += rp.Stats.Leaf
		stats.TIAAccesses += rp.Stats.TIAReads
		stats.TIAPhysical += rp.Stats.TIAPhysical
		stats.Scored += rp.Stats.Scored
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score < all[j].Score
		}
		return all[i].POI < all[j].POI
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	results := make([]core.Result, len(all))
	for i, cd := range all {
		results[i] = core.Result{
			POI:   core.POI{ID: cd.POI, X: cd.X, Y: cd.Y},
			Score: cd.Score, S0: cd.S0, S1: cd.S1, Agg: cd.Agg,
		}
	}
	return results, stats, rows, nil
}

// scatter sends the same request to every shard in parallel and decodes
// shard i's JSON reply into out[i]; took[i] is how long shard i took, and
// is filled even when the call fails. The first failing shard in shard
// order fails the whole call as a ShardError — or as ErrCanceled once ctx
// has ended.
func scatter[T any](ctx context.Context, c *Coordinator, method, path string, body []byte) ([]T, []time.Duration, error) {
	out := make([]T, len(c.Shards))
	took := make([]time.Duration, len(c.Shards))
	errs := make([]error, len(c.Shards))
	var wg sync.WaitGroup
	for i, url := range c.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = c.call(ctx, method, url+path, body, &out[i])
			took[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c.Metrics.addError()
			if ctx.Err() != nil {
				return nil, took, fmt.Errorf("%w: %v", core.ErrCanceled, ctx.Err())
			}
			return nil, took, &ShardError{Shard: i, URL: c.Shards[i], Err: err}
		}
	}
	return out, took, nil
}

// call runs one shard request, propagating the caller's trace ID, and
// decodes a 200 reply into v.
func (c *Coordinator) call(ctx context.Context, method, url string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		req.Header.Set("traceparent", sp.Context().Traceparent())
	}
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpapi.ReadError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// mergeGmax finishes the normalizer exchange: every shard shipped its
// global TIA's records for the query interval, and max-merging them
// rebuilds exactly the single-node global TIA, whose aggregate is gmax.
// The per-shard aggregation configs must agree — a mismatched shard is a
// deployment error, reported as a ShardError.
func (c *Coordinator) mergeGmax(q core.Query, resps []gmaxResponse) (float64, error) {
	merged := new(tia.Index)
	for i, gr := range resps {
		if gr.Of != len(resps) || gr.Index != i {
			return 0, &ShardError{Shard: i, URL: c.Shards[i],
				Err: fmt.Errorf("identifies as shard %d/%d, coordinator expects %d/%d", gr.Index, gr.Of, i, len(resps))}
		}
		if gr.Semantics != resps[0].Semantics || gr.AggFunc != resps[0].AggFunc {
			return 0, &ShardError{Shard: i, URL: c.Shards[i],
				Err: fmt.Errorf("aggregation config (sem=%d func=%d) disagrees with shard 0 (sem=%d func=%d)",
					gr.Semantics, gr.AggFunc, resps[0].Semantics, resps[0].AggFunc)}
		}
		if err := merged.MaxMerge(gr.Records); err != nil {
			return 0, &ShardError{Shard: i, URL: c.Shards[i], Err: err}
		}
	}
	agg, err := merged.Aggregate(q.Iq, tia.Semantics(resps[0].Semantics), tia.Func(resps[0].AggFunc), nil)
	if err != nil {
		return 0, err
	}
	return float64(agg), nil
}
