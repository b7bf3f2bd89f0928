package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tartree/internal/core"
	"tartree/internal/httpapi"
	"tartree/internal/obs"
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
// A query costs one stateless request per shard, carrying the gmax of the
// coordinator's merge of the shards' global TIAs and the shard's stamp. Each
// shard answers its top k in core.CompareResults' order; the coordinator
// sorts the union in the same order and keeps k, which is the single
// node's answer, ties included.
type Coordinator struct {
	// Shards are the shard base URLs in shard-map order.
	Shards []string
	// Client is the HTTP client used for shard calls (http.DefaultClient
	// when nil).
	Client  *http.Client
	Metrics *Metrics

	view atomic.Pointer[globalView] // nil until fetched, and once a shard refuses it
}

// globalView is the max-merge of every shard's global TIA, with each
// shard's stamp and their shared aggregation config. It is never modified.
type globalView struct {
	merged *tia.Index
	stamps []core.GlobalStamp
	sem    tia.Semantics
	fn     tia.Func
}

// maxAttempts bounds the tries of a query whose view shards refuse: a
// second refusal means a shard's global TIA moved again meanwhile.
const maxAttempts = 3

// QueryCtx implements core.Querier.
func (c *Coordinator) QueryCtx(ctx context.Context, q core.Query, opts *core.QueryOpts) ([]core.Result, core.QueryStats, error) {
	res, stats, shards, err := c.Query(ctx, q)
	if opts != nil {
		if opts.Explain != nil {
			opts.Explain.Shards = shards
			opts.Explain.Finish(res, stats, err)
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
	replies, err := c.search(ctx, q, rows)
	if err != nil {
		if !errors.Is(err, core.ErrInvalid) {
			c.Metrics.addError()
		}
		return nil, stats, rows, err
	}

	var all []core.Result
	for i, rp := range replies {
		all = append(all, rp.Candidates...)
		rows[i].Results = len(rp.Candidates)
		rows[i].NodeAccesses = int64(rp.Stats.RTreeAccesses())
		rows[i].TIAReads = rp.Stats.TIAAccesses
		stats.Merge(&rp.Stats)
	}
	slices.SortFunc(all, core.CompareResults)
	return all[:min(len(all), q.K)], stats, rows, nil
}

// search runs the query on every shard under the view's gmax and each
// shard's stamp. A 409 drops the view and the query runs again under a
// fresh one; rows get the last try's latencies.
func (c *Coordinator) search(ctx context.Context, q core.Query, rows []core.ExplainShard) ([]queryResponse, error) {
	for attempt := 1; ; attempt++ {
		v := c.view.Load()
		var err error
		if v == nil {
			if v, err = c.fetchView(ctx); err != nil {
				return nil, err
			}
		}
		tia.AddProbes(tia.KindMem, 1)
		gmax, _ := v.merged.Aggregate(q.Iq, v.sem, v.fn) // in memory: cannot fail
		// One slab holds every shard's body; only the stamps differ.
		slab := make([]byte, 0, len(c.Shards)*queryBodyLen)
		bodies := make([][]byte, len(c.Shards))
		for i := range bodies {
			slab = appendQuery(slab, &queryRequest{
				X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
				Start: q.Iq.Start, End: q.Iq.End, Gmax: float64(gmax), Stamp: v.stamps[i],
			})
			bodies[i] = slab[i*queryBodyLen : (i+1)*queryBodyLen]
		}
		c.Metrics.addFanout(len(c.Shards))
		replies, took, err := scatter(ctx, c, http.MethodPost, "/v1/shard/query", bodies, readReply)
		var straggler time.Duration
		for i := range rows {
			rows[i].ElapsedMicros = took[i].Microseconds()
			straggler = max(straggler, took[i])
		}
		c.Metrics.observeStraggler(straggler.Seconds())
		var he *httpapi.Error
		if err == nil || !errors.As(err, &he) || he.Status != http.StatusConflict {
			return replies, err
		}
		c.view.CompareAndSwap(v, nil)
		if attempt == maxAttempts {
			return nil, err
		}
	}
}

// fetchView asks every shard for its global TIA and stamp, checks that
// each is the shard the coordinator expects and that all share one
// aggregation config (a deployment error otherwise, reported as a
// ShardError), and publishes the max-merge, which rebuilds exactly the
// single-node global TIA.
func (c *Coordinator) fetchView(ctx context.Context) (*globalView, error) {
	c.Metrics.addGmaxFetch()
	resps, _, err := scatter(ctx, c, http.MethodGet, "/v1/shard/gmax", nil, readJSON[gmaxResponse])
	if err != nil {
		return nil, err
	}
	v := &globalView{merged: new(tia.Index), sem: tia.Semantics(resps[0].Semantics), fn: tia.Func(resps[0].AggFunc)}
	for i, gr := range resps {
		if gr.Of != len(resps) || gr.Index != i {
			return nil, &ShardError{Shard: i, URL: c.Shards[i],
				Err: fmt.Errorf("identifies as shard %d/%d, coordinator expects %d/%d", gr.Index, gr.Of, i, len(resps))}
		}
		if gr.Semantics != resps[0].Semantics || gr.AggFunc != resps[0].AggFunc {
			return nil, &ShardError{Shard: i, URL: c.Shards[i],
				Err: fmt.Errorf("aggregation config (sem=%d func=%d) disagrees with shard 0 (sem=%d func=%d)",
					gr.Semantics, gr.AggFunc, resps[0].Semantics, resps[0].AggFunc)}
		}
		v.merged.MaxMerge(gr.Records) //nolint:errcheck // in memory: cannot fail
		v.stamps = append(v.stamps, gr.Stamp)
	}
	c.view.Store(v)
	return v, nil
}

// scatter sends one request to every shard in parallel — bodies[i] to
// shard i, or no body when bodies is nil — and reads shard i's 200 reply
// into out[i] with read; took[i] is how long shard i took, and is filled
// even when the call fails. The last shard's call runs on the calling
// goroutine, the others on one goroutine each. The first failing shard in
// shard order fails the whole call as a ShardError — or as ErrCanceled
// once ctx has ended.
func scatter[T any](ctx context.Context, c *Coordinator, method, path string, bodies [][]byte, read func(*http.Response, *T) error) ([]T, []time.Duration, error) {
	out := make([]T, len(c.Shards))
	took := make([]time.Duration, len(c.Shards))
	errs := make([]error, len(c.Shards))
	one := func(i int) {
		var body []byte
		if bodies != nil {
			body = bodies[i]
		}
		t0 := time.Now()
		errs[i] = call(ctx, c, method, c.Shards[i]+path, body, &out[i], read)
		took[i] = time.Since(t0)
	}
	var wg sync.WaitGroup
	last := len(c.Shards) - 1
	for i := range last {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one(i)
		}()
	}
	one(last)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if ctx.Err() != nil {
				return nil, took, fmt.Errorf("%w: %v", core.ErrCanceled, ctx.Err())
			}
			return nil, took, &ShardError{Shard: i, URL: c.Shards[i], Err: err}
		}
	}
	return out, took, nil
}

// call runs one shard request, propagating the caller's trace ID, and
// reads a 200 reply into v with read; any other status is the error
// envelope.
func call[T any](ctx context.Context, c *Coordinator, method, url string, body []byte, v *T, read func(*http.Response, *T) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
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
	return read(resp, v)
}

// readJSON decodes a JSON reply.
func readJSON[T any](resp *http.Response, v *T) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// readReply reads a TSR1 query reply to EOF, so that its connection goes
// back to the pool, and decodes it.
func readReply(resp *http.Response, v *queryResponse) error {
	b, err := io.ReadAll(resp.Body)
	if err == nil {
		*v, err = decodeReply(b)
	}
	return err
}
