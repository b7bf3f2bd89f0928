package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
// never degrades to a partial top-k: any unrecoverable shard failure
// aborts the whole query with this error, and cmd/tarserve maps it to a
// 503 envelope naming the shard — a loud error beats a silently wrong
// answer.
type ShardError struct {
	Shard int
	URL   string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.URL, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// errGone marks a 410 from a shard: the session (or its index version) is
// gone and the coordinator should restart that shard's search.
type errGone struct{ msg string }

func (e errGone) Error() string { return e.msg }

// Coordinator fans a kNNTA query out to every shard and merges the
// streamed candidate batches into the global top-k, implementing
// core.Querier so servers and CLIs treat a sharded cluster exactly like a
// local tree.
//
// The search runs as barrier rounds: each round the coordinator sends the
// same global bound — the kth best score over everything merged so far —
// to all in-flight shards in parallel, waits for all of them, merges in
// shard order, and tightens the bound. Rounds keep the execution
// deterministic for a fixed dataset and shard map (the work counters are
// benchdiff-gated), and the shared bound is what makes scatter-gather
// cheap: a shard whose best frontier entry cannot beat the global kth
// stops immediately instead of drilling to its own local top-k.
type Coordinator struct {
	// Shards are the shard base URLs in shard-map order.
	Shards []string
	// Client is the HTTP client used for shard calls (http.DefaultClient
	// when nil).
	Client *http.Client
	// Batch is the per-shard candidates-per-round budget; 0 selects
	// max(1, ⌈k/4⌉), small enough that the bound tightens mid-query.
	Batch int
	// NoBound disables bound pushes (every shard drains to its local
	// top-k-ish stream until exhausted batches); the bench control arm.
	NoBound bool
	// MaxRestarts bounds version-drift restarts per shard (default 3).
	MaxRestarts int
	Metrics     *Metrics
}

type shardState struct {
	idx     int
	url     string
	session uint64
	open    bool // session live on the shard
	done    bool
	pruned  bool
	cands   []candidate
	stats   statsDelta
	rounds  int
	pushes  int
	restart int
	elapsed time.Duration
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

	states := make([]*shardState, len(c.Shards))
	for i, url := range c.Shards {
		states[i] = &shardState{idx: i, url: url}
	}

	gmax, err := c.fetchGmax(ctx, q, states)
	if err != nil {
		return nil, stats, c.explainRows(states), err
	}

	batch := c.Batch
	if batch <= 0 {
		batch = (q.K + 3) / 4
	}
	if batch < 1 {
		batch = 1
	}

	for {
		var active []*shardState
		for _, st := range states {
			if !st.done {
				active = append(active, st)
			}
		}
		if len(active) == 0 {
			break
		}
		bound := c.globalBound(states, q.K)
		var wg sync.WaitGroup
		resps := make([]*roundResponse, len(active))
		errs := make([]error, len(active))
		took := make([]time.Duration, len(active))
		for i, st := range active {
			wg.Add(1)
			go func(i int, st *shardState) {
				defer wg.Done()
				t0 := time.Now()
				resps[i], errs[i] = c.roundTrip(ctx, st, q, gmax, bound, batch)
				took[i] = time.Since(t0)
			}(i, st)
		}
		wg.Wait()

		var straggler time.Duration
		for i, st := range active {
			st.rounds++
			st.elapsed += took[i]
			if took[i] > straggler {
				straggler = took[i]
			}
			if bound != nil {
				st.pushes++
			}
			// One CompShard read per shard round: the distributed analogue
			// of a node access, attributed at level = shard index.
			stats.IO.AddRead(pagestore.NewIOTag(pagestore.CompShard, st.idx), true)
			if err := errs[i]; err != nil {
				if _, gone := err.(errGone); gone {
					// The shard's index moved under the session. Drop
					// everything it contributed (its old candidates belong
					// to a dead version) and start over next round with a
					// bound recomputed from the surviving candidates.
					st.restart++
					c.Metrics.addRestart()
					if st.restart > c.maxRestarts() {
						c.Metrics.addError()
						return nil, stats, c.explainRows(states),
							&ShardError{Shard: st.idx, URL: st.url, Err: fmt.Errorf("gave up after %d restarts: %v", st.restart-1, err)}
					}
					st.session, st.open, st.done, st.pruned = 0, false, false, false
					st.cands = nil
					continue
				}
				c.Metrics.addError()
				if ctx.Err() != nil {
					return nil, stats, c.explainRows(states), fmt.Errorf("%w: %v", core.ErrCanceled, ctx.Err())
				}
				return nil, stats, c.explainRows(states), &ShardError{Shard: st.idx, URL: st.url, Err: err}
			}
			resp := resps[i]
			st.session = resp.Session
			st.open = !resp.Done
			st.cands = append(st.cands, resp.Candidates...)
			st.stats.Internal += resp.Stats.Internal
			st.stats.Leaf += resp.Stats.Leaf
			st.stats.TIAReads += resp.Stats.TIAReads
			st.stats.TIAPhysical += resp.Stats.TIAPhysical
			st.stats.Scored += resp.Stats.Scored
			if resp.Done {
				st.done = true
				if resp.Pruned {
					st.pruned = true
					c.Metrics.addPruned()
				}
			}
		}
		c.Metrics.addRound()
		c.Metrics.addFanout(len(active))
		if bound != nil {
			c.Metrics.addBoundPushes(len(active))
		}
		c.Metrics.observeStraggler(straggler.Seconds())
	}

	// Merge: all candidates, ascending (score, id) — the id tiebreak makes
	// the distributed answer deterministic where pop order is not.
	var all []candidate
	for _, st := range states {
		all = append(all, st.cands...)
		stats.InternalAccesses += st.stats.Internal
		stats.LeafAccesses += st.stats.Leaf
		stats.TIAAccesses += st.stats.TIAReads
		stats.TIAPhysical += st.stats.TIAPhysical
		stats.Scored += st.stats.Scored
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
	return results, stats, c.explainRows(states), nil
}

func (c *Coordinator) maxRestarts() int {
	if c.MaxRestarts > 0 {
		return c.MaxRestarts
	}
	return 3
}

// propagate hands the caller's trace ID to a shard, whose tarserve joins it.
func propagate(ctx context.Context, req *http.Request) {
	if sp := obs.SpanFromContext(ctx); sp != nil {
		req.Header.Set("traceparent", sp.Context().Traceparent())
	}
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// fetchGmax runs the normalizer exchange: every shard ships its
// global TIA's records for the query interval, the coordinator max-merges
// them (rebuilding exactly the single-node global TIA) and aggregates.
// The per-shard aggregation configs must agree — a mismatched shard is a
// deployment error, reported as a ShardError.
func (c *Coordinator) fetchGmax(ctx context.Context, q core.Query, states []*shardState) (float64, error) {
	resps := make([]*gmaxResponse, len(states))
	errs := make([]error, len(states))
	var wg sync.WaitGroup
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/shard/gmax?start=%d&end=%d", st.url, q.Iq.Start, q.Iq.End)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				errs[i] = err
				return
			}
			propagate(ctx, req)
			resp, err := c.client().Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = httpapi.ReadError(resp)
				return
			}
			var gr gmaxResponse
			if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
				errs[i] = err
				return
			}
			resps[i] = &gr
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c.Metrics.addError()
			if ctx.Err() != nil {
				return 0, fmt.Errorf("%w: %v", core.ErrCanceled, ctx.Err())
			}
			return 0, &ShardError{Shard: i, URL: states[i].url, Err: err}
		}
	}
	merged := tia.NewMem()
	for i, gr := range resps {
		if gr.Of != len(states) || gr.Index != i {
			return 0, &ShardError{Shard: i, URL: states[i].url,
				Err: fmt.Errorf("identifies as shard %d/%d, coordinator expects %d/%d", gr.Index, gr.Of, i, len(states))}
		}
		if gr.Semantics != resps[0].Semantics || gr.AggFunc != resps[0].AggFunc {
			return 0, &ShardError{Shard: i, URL: states[i].url,
				Err: fmt.Errorf("aggregation config (sem=%d func=%d) disagrees with shard 0 (sem=%d func=%d)",
					gr.Semantics, gr.AggFunc, resps[0].Semantics, resps[0].AggFunc)}
		}
		if err := merged.MaxMerge(gr.Records); err != nil {
			return 0, &ShardError{Shard: i, URL: states[i].url, Err: err}
		}
	}
	agg, err := merged.Aggregate(q.Iq, tia.Semantics(resps[0].Semantics), tia.Func(resps[0].AggFunc), nil)
	if err != nil {
		return 0, err
	}
	return float64(agg), nil
}

// globalBound returns the kth best merged score, or nil while fewer than k
// candidates exist (or bound pushing is disabled).
func (c *Coordinator) globalBound(states []*shardState, k int) *float64 {
	if c.NoBound {
		return nil
	}
	var scores []float64
	for _, st := range states {
		for _, cd := range st.cands {
			scores = append(scores, cd.Score)
		}
	}
	if len(scores) < k {
		return nil
	}
	sort.Float64s(scores)
	b := scores[k-1]
	return &b
}

// roundTrip serves one shard round: session open on the first call, resume
// after. A 410 comes back as errGone for the restart path.
func (c *Coordinator) roundTrip(ctx context.Context, st *shardState, q core.Query, gmax float64, bound *float64, batch int) (*roundResponse, error) {
	var url string
	var body any
	if !st.open {
		url = st.url + "/v1/shard/query"
		body = queryRequest{
			X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
			Start: q.Iq.Start, End: q.Iq.End,
			Gmax: gmax, Bound: bound, Batch: batch,
		}
	} else {
		url = st.url + "/v1/shard/next"
		body = nextRequest{Session: st.session, Bound: bound, Batch: batch}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	propagate(ctx, req)
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		e := httpapi.ReadError(resp)
		return nil, errGone{msg: e.Message}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, httpapi.ReadError(resp)
	}
	var rr roundResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

func (c *Coordinator) explainRows(states []*shardState) []core.ExplainShard {
	rows := make([]core.ExplainShard, len(states))
	for i, st := range states {
		rows[i] = core.ExplainShard{
			Shard:         st.idx,
			URL:           st.url,
			Results:       len(st.cands),
			Rounds:        st.rounds,
			BoundPushes:   st.pushes,
			NodeAccesses:  int64(st.stats.Internal + st.stats.Leaf),
			TIAReads:      st.stats.TIAReads,
			Pruned:        st.pruned,
			Restarts:      st.restart,
			ElapsedMicros: st.elapsed.Microseconds(),
		}
	}
	return rows
}
