package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"tartree/internal/core"
)

// The traced run. End-to-end metrics are always measured with tracing off
// (measure); this run exists for the per-layer numbers. It drives one fleet
// through: a counting pass (one client, cold caches: exact work counters) →
// warm-up → a closed window between two /metrics scrapes → an untraced and a
// traced open window (their p50 difference is the tracing overhead) → a
// paired nocache/cache closed run → a decode sample → teardown; the five
// windows last a third of -seconds each. Then it
// replays the traced requests in-process on a replica to split the server's
// time by layer, and runs the in-process loops of layers.go.

const (
	// countQueries is the length of the counting pass.
	countQueries = 500
	// ingestEvery is how many counting-pass queries separate two ingest
	// batches on durable-mixed: the workload's query rate over its ingest rate.
	ingestEvery = 15
	// replayRequests caps how many traced requests are replayed in-process.
	replayRequests = 1000
	// decodePairs is how many (client.Remote.Do, raw GET) pairs time the
	// client's JSON decode.
	decodePairs = 200
	// explainQueries is how many explain=1 queries sample the shard hops.
	explainQueries = 100
)

// span is one recorded interval. Spans of one request share its id; times
// are nanoseconds since the recorder started.
type span struct {
	Request int    `json:"request"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(request int, name, parent string, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Request: request, Name: name, Parent: parent, Start: int64(start), End: int64(end)})
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, duration minus the time covered by the
// span's direct children (clipped to the parent).
func (r *recorder) selfTimes() map[string]time.Duration {
	type key struct {
		request int
		name    string
	}
	covered := make(map[key]time.Duration)
	byKey := make(map[key]span, len(r.spans))
	for _, s := range r.spans {
		byKey[key{s.Request, s.Name}] = s
	}
	for _, s := range r.spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byKey[key{s.Request, s.Parent}]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[key{s.Request, s.Parent}] += time.Duration(hi - lo)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range r.spans {
		d := time.Duration(s.End-s.Start) - covered[key{s.Request, s.Name}]
		self[s.Name] += max(d, 0)
	}
	return self
}

// tracedSample is a request of the traced window kept for the replay.
type tracedSample struct {
	request int
	slot    int32
	sent    time.Duration // since the recorder started
	server  time.Duration // start of its tarserve.server span
	// cacheHit says the live server answered from its result cache; the
	// replay then primes the replica's cache, which was not there to see the
	// earlier windows.
	cacheHit bool
}

func measureTraced(ctx context.Context, cfg *config, wl workload, w *world) (*outcome, error) {
	s := newStream(w, wl, cfg.seed, 2*cfg.span())
	orc := newOracle(w, s)
	out := &outcome{Detail: map[string]any{}}
	m := map[string]value{}
	rec := &recorder{t0: time.Now()}

	live, err := tracedLive(ctx, cfg, wl, w, s, rec, m)
	if err != nil {
		return nil, fmt.Errorf("%s, traced: %w", wl.name, err)
	}
	if err := out.judge(cfg, wl, orc, live.windows, live.acks, live.invariant); err != nil {
		return nil, err
	}
	m["failed_share"] = value{float64(out.Failed) / float64(out.Attempted), "ratio"}

	rep, err := buildReplica(w)
	if err != nil {
		return nil, err
	}
	layers, err := layerMetrics(ctx, cfg, w, rep, s.pool)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	if err := replay(ctx, wl, s, rep, live, rec, m); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(cfg.outDir, "trace_"+wl.name+".jsonl")); err != nil {
		return nil, err
	}
	self := rec.selfTimes()
	selfUS := make(map[string]float64, len(self))
	for name, d := range self {
		selfUS[name] = us(d)
	}
	out.Detail["self_time_us"] = selfUS
	out.Detail["spans"] = len(rec.spans)
	out.Metrics = m
	return out, nil
}

// liveOutcome is what the live half of the traced run hands to the replay.
type liveOutcome struct {
	windows   []*window
	acks      []ack
	ackTimes  []time.Duration // completion of each acked batch, since the recorder started
	traced    []tracedSample
	invariant error
}

// tracedLive drives the fleet and fills every metric that comes from live
// responses, /metrics scrapes and /proc.
func tracedLive(ctx context.Context, cfg *config, wl workload, w *world, s *stream, rec *recorder, m map[string]value) (*liveOutcome, error) {
	f, err := startFleet(ctx, cfg, wl, w, "-traced")
	if err != nil {
		return nil, err
	}
	defer f.stop()
	d := newDriver(f.front.url, s)
	defer d.close()
	live := &liveOutcome{}
	keep := func(win window) *window {
		live.windows = append(live.windows, &win)
		return &win
	}

	// Counting pass: one client, caches cold, requests strictly in stream
	// order, so the work counters repeat bit for bit.
	count := window{}
	batch := 0
	start := time.Now()
	for i := 0; i < countQueries && ctx.Err() == nil; i++ {
		if wl.topo == topoDurable && i%ingestEvery == 0 {
			a := ack{count: ingestBatch}
			a.lsn, a.err = d.ingest(s.batches[batch])
			live.acks = append(live.acks, a)
			batch++
		}
		count.samples = append(count.samples, d.send(ctx, start, time.Since(start), d.next(), nil))
	}
	countingMetrics(keep(count), m)

	feedCtx, stopFeed := context.WithCancel(ctx)
	defer stopFeed()
	feedDone := make(chan struct{})
	var feedAcks []ack
	feedStart := time.Now()
	if wl.topo == topoDurable {
		go func() {
			defer close(feedDone)
			feedAcks = d.ingestFeed(feedCtx, feedStart, batch)
		}()
	} else {
		close(feedDone)
	}

	keep(d.closedLoop(ctx, cfg.clients, cfg.warmup, nil))

	// Closed window between two scrapes: cache, runtime, WAL and shard
	// counters per query.
	third := time.Duration(cfg.seconds / 3 * float64(time.Second))
	before, err := f.scrapeAll()
	if err != nil {
		return nil, err
	}
	closed := keep(d.closedLoop(ctx, cfg.clients, third, nil))
	after, err := f.scrapeAll()
	if err != nil {
		return nil, err
	}
	scrapeMetrics(before, after, closed, m)
	overhead := make([]float64, 0, len(closed.samples))
	for i := range closed.samples {
		if sm := &closed.samples[i]; sm.err == nil {
			overhead = append(overhead, us(sm.done-sm.sent)-float64(sm.serverUS))
		}
	}
	sort.Float64s(overhead)
	if len(overhead) == 0 {
		return nil, fmt.Errorf("no reply in the closed window: %v", firstError(closed))
	}
	m["tarserve.overhead_us"] = value{quantile(overhead, 0.5), "us"}

	// Untraced, then traced open window.
	self0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	plain := keep(d.openLoop(ctx, wl.rate, third, nil))
	self1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	health := openHealth(plain, self1-self0)
	m["loadgen.late_ms_p99"] = value{health.LateP99Ms, "ms"}
	m["loadgen.cpu_share"] = value{health.LoadgenShare, "ratio"}
	plainLat := latencies(plain)
	if len(plainLat) == 0 {
		return nil, fmt.Errorf("no reply in the open window: %v", firstError(plain))
	}
	m["query_p95_ms"] = value{quantile(plainLat, 0.95), "ms"}
	m["query_p99_ms"] = value{quantile(plainLat, 0.99), "ms"}

	d.rec = rec
	depth := make(chan float64, 1)
	pollCtx, stopPoll := context.WithCancel(ctx)
	go func() { depth <- pollQueueDepth(pollCtx, f) }()
	tracedWin := keep(d.openLoop(ctx, wl.rate, third, nil))
	stopPoll()
	m["tarserve.queue_depth_max"] = value{<-depth, "count"}
	d.rec = nil
	tracedLat := latencies(tracedWin)
	if len(tracedLat) == 0 {
		return nil, fmt.Errorf("no reply in the traced window: %v", firstError(tracedWin))
	}
	p50 := quantile(plainLat, 0.5)
	m["trace.overhead_pct"] = value{100 * (quantile(tracedLat, 0.5) - p50) / p50, "%"}
	live.traced = d.traced

	// The cache's price on this traffic: the same closed loop with and
	// without nocache=1, back to back on fresh stretches of the stream.
	bypass := keep(d.closedLoop(ctx, cfg.clients, third, &core.QueryOpts{NoCache: true}))
	cached := keep(d.closedLoop(ctx, cfg.clients, third, nil))
	nb, nc := completedWithin(bypass), completedWithin(cached)
	if nb == 0 || nc == 0 {
		return nil, fmt.Errorf("no reply in the nocache/cache pair: %v", errors.Join(firstError(bypass), firstError(cached)))
	}
	m["aggcache.miss_penalty_pct"] = value{100 * (float64(nb)/float64(nc) - 1), "%"}

	stopFeed()
	<-feedDone
	live.acks = append(live.acks, feedAcks...)
	for _, a := range feedAcks {
		if a.err == nil {
			live.ackTimes = append(live.ackTimes, feedStart.Add(a.done).Sub(rec.t0))
		}
	}
	ingestMetrics(feedAcks, cfg.warmup, m)
	if wl.topo == topoDurable {
		live.invariant = checkAcks(live.acks, f)
	}
	walLiveMetrics(after, before, f, live.acks, m)

	if err := decodeMetrics(ctx, d, s, m); err != nil {
		return nil, err
	}
	if err := shardMetrics(ctx, d, s, before, after, closed, wl, m); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return live, f.alive()
}

// countingMetrics turns the counting pass's summed stats into per-query
// work counters.
func countingMetrics(w *window, m map[string]value) {
	var sum work
	n := 0
	for i := range w.samples {
		if sm := &w.samples[i]; sm.err == nil {
			n++
			sum.internal += sm.work.internal
			sum.leaf += sm.work.leaf
			sum.scored += sm.work.scored
			sum.tia += sm.work.tia
			sum.tiaPhysical += sm.work.tiaPhysical
		}
	}
	per := func(v float64) value { return value{v / float64(max(n, 1)), "count"} }
	m["core.node_accesses_per_query"] = per(float64(sum.internal+sum.leaf) + float64(sum.tia))
	m["core.leaf_accesses_per_query"] = per(float64(sum.leaf))
	m["core.scored_per_query"] = per(float64(sum.scored))
	m["core.tia_accesses_per_query"] = per(float64(sum.tia))
	m["pagestore.reads_per_query"] = per(float64(sum.tia))
	hit := 1.0
	if sum.tia > 0 {
		hit = 1 - float64(sum.tiaPhysical)/float64(sum.tia)
	}
	m["pagestore.hit_ratio"] = value{hit, "ratio"}
}

// scrapeMetrics turns the difference of two fleet-wide /metrics scrapes
// around the closed window into per-query and per-second numbers.
func scrapeMetrics(before, after scrape, closed *window, m map[string]value) {
	delta := func(series string) float64 { return after[series] - before[series] }
	queries := float64(max(len(closed.samples), 1))
	hits, misses := delta("tartree_aggcache_hits_total"), delta("tartree_aggcache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m["aggcache.hit_ratio"] = value{ratio, "ratio"}
	m["aggcache.invalidations_per_s"] = value{delta("tartree_aggcache_version") / closed.length.Seconds(), "1/s"}
	m["runtime.alloc_bytes_per_query"] = value{delta("go_heap_allocs_bytes_total") / queries, "B"}
	m["runtime.gc_cycles_per_kquery"] = value{1000 * delta("go_gc_cycles_total") / queries, "count"}
	m["runtime.gc_pause_p99_ms"] = value{1000 * histogramQuantile(before, after, "go_gc_pauses_seconds", 0.99), "ms"}
}

// histogramQuantile returns the upper bound of the bucket that holds the
// p-quantile of the observations made between two scrapes (0 if none).
func histogramQuantile(before, after scrape, name string, p float64) float64 {
	type bucket struct{ le, n float64 }
	var buckets []bucket
	prefix := name + `_bucket{le="`
	for series, v := range after {
		if len(series) <= len(prefix) || series[:len(prefix)] != prefix {
			continue
		}
		le, err := strconv.ParseFloat(series[len(prefix):len(series)-2], 64)
		if err != nil {
			continue // +Inf
		}
		buckets = append(buckets, bucket{le, v - before[series]})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := after[name+"_count"] - before[name+"_count"]
	if total <= 0 {
		return 0
	}
	for _, b := range buckets {
		if b.n >= p*total {
			return b.le
		}
	}
	return math.Inf(1)
}

// pollQueueDepth samples the admission queue gauge ten times a second until
// ctx ends and returns the deepest reading. Reading /metrics costs the
// server a little, which is why it runs beside the traced window only.
func pollQueueDepth(ctx context.Context, f *fleet) float64 {
	deepest := 0.0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return deepest
		case <-tick.C:
			if sc, err := f.scrape(f.front); err == nil {
				deepest = max(deepest, sc["tarserve_query_queue_depth"])
			}
		}
	}
}

// ingestMetrics reports the feed's ack latency from due time, warm-up
// excluded. Zero on the workloads without ingest.
func ingestMetrics(acks []ack, warm time.Duration, m map[string]value) {
	var lat []float64
	for _, a := range acks {
		if a.err == nil && a.due >= warm {
			lat = append(lat, ms(a.done-a.due))
		}
	}
	sort.Float64s(lat)
	p50, p99 := 0.0, 0.0
	if len(lat) > 0 {
		p50, p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	}
	m["ingest_p50_ms"] = value{p50, "ms"}
	m["ingest_p99_ms"] = value{p99, "ms"}
}

// walLiveMetrics reads the WAL's own counters over the closed window and its
// directory. Zero on the workloads without a WAL.
func walLiveMetrics(after, before scrape, f *fleet, acks []ack, m map[string]value) {
	m["wal.fsyncs_per_batch"] = value{0, "count"}
	m["wal.batch_records_mean"] = value{0, "count"}
	m["wal.bytes_per_checkin"] = value{0, "B"}
	batches := after["tartree_wal_batches_total"] - before["tartree_wal_batches_total"]
	if batches > 0 {
		m["wal.fsyncs_per_batch"] = value{(after["tartree_wal_fsyncs_total"] - before["tartree_wal_fsyncs_total"]) / batches, "count"}
	}
	if n := after["tartree_wal_batch_records_count"] - before["tartree_wal_batch_records_count"]; n > 0 {
		m["wal.batch_records_mean"] = value{(after["tartree_wal_batch_records_sum"] - before["tartree_wal_batch_records_sum"]) / n, "count"}
	}
	var bytes int64
	entries, _ := os.ReadDir(filepath.Join(f.scratch, "wal"))
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	checkins := 0
	for _, a := range acks {
		if a.err == nil {
			checkins += a.count
		}
	}
	if checkins > 0 {
		m["wal.bytes_per_checkin"] = value{float64(bytes) / float64(checkins), "B"}
	}
}

// decodeMetrics times client.Remote.Do against a raw GET of the same URL
// that only drains the body: the difference is the client's JSON decode.
// Both bypass the cache, or the second of each pair would be a hit.
func decodeMetrics(ctx context.Context, d *driver, s *stream, m map[string]value) error {
	var viaClient, raw, size []float64
	do := func(q core.Query) error {
		begin := time.Now()
		if _, err := d.remote.Do(ctx, q, &core.QueryOpts{NoCache: true}); err != nil {
			return err
		}
		viaClient = append(viaClient, us(time.Since(begin)))
		return nil
	}
	get := func(q core.Query) error {
		v := queryValues(q)
		v.Set("nocache", "1")
		begin := time.Now()
		resp, err := d.http.Get(d.base + "/v1/query?" + v.Encode())
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("raw query: status %d", resp.StatusCode)
		}
		raw = append(raw, us(time.Since(begin)))
		size = append(size, float64(n))
		return nil
	}
	for i := 0; i < decodePairs; i++ {
		q, _ := s.query(d.next())
		// The second request of a pair finds the server's page buffers and
		// CPU caches warm for this query: alternate which one that is.
		first, second := do, get
		if i%2 == 1 {
			first, second = get, do
		}
		if err := errors.Join(first(q), second(q)); err != nil {
			return err
		}
	}
	sort.Float64s(viaClient)
	sort.Float64s(raw)
	m["client.decode_us"] = value{quantile(viaClient, 0.5) - quantile(raw, 0.5), "us"}
	m["tarserve.response_bytes"] = value{median(size), "B"}
	return nil
}

// queryValues spells a query the way client.Remote does.
func queryValues(q core.Query) url.Values {
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(q.X, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(q.Y, 'g', -1, 64))
	v.Set("k", strconv.Itoa(q.K))
	v.Set("alpha", strconv.FormatFloat(q.Alpha0, 'g', -1, 64))
	v.Set("start", strconv.FormatInt(q.Iq.Start, 10))
	v.Set("end", strconv.FormatInt(q.Iq.End, 10))
	return v
}

// shardMetrics reads the coordinator's and shards' tartree_shard_* counters
// over the closed window, and samples explain=1 for the hop overhead. Every
// value is zero on the unsharded workloads.
func shardMetrics(ctx context.Context, d *driver, s *stream, before, after scrape, closed *window, wl workload, m map[string]value) error {
	for _, name := range []string{"shard.rounds_per_query", "shard.candidates_per_query", "shard.bound_pushes_per_query"} {
		m[name] = value{0, "count"}
	}
	m["shard.pruned_share"] = value{0, "ratio"}
	m["shard.straggler_ms"] = value{0, "ms"}
	m["shard.hop_overhead_us"] = value{0, "us"}
	if wl.topo != topoSharded {
		return nil
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	queries := delta("tartree_shard_queries_total")
	if queries <= 0 {
		return fmt.Errorf("the coordinator counted no sharded query over the closed window")
	}
	m["shard.rounds_per_query"] = value{delta("tartree_shard_rounds_total") / queries, "count"}
	m["shard.candidates_per_query"] = value{delta("tartree_shard_candidates_total") / queries, "count"}
	m["shard.bound_pushes_per_query"] = value{delta("tartree_shard_bound_pushes_total") / queries, "count"}
	m["shard.pruned_share"] = value{delta("tartree_shard_pruned_total") / (queries * numShards), "ratio"}
	if n := delta("tartree_shard_straggler_seconds_count"); n > 0 {
		m["shard.straggler_ms"] = value{1000 * delta("tartree_shard_straggler_seconds_sum") / n, "ms"}
	}
	var hop []float64
	for i := 0; i < explainQueries; i++ {
		q, _ := s.query(d.next())
		exp := core.NewExplain()
		resp, err := d.remote.Do(ctx, q, &core.QueryOpts{Explain: exp})
		if err != nil {
			return err
		}
		var slowest int64
		for _, sh := range exp.Shards {
			slowest = max(slowest, sh.ElapsedMicros)
		}
		hop = append(hop, float64(resp.ElapsedMicros-slowest))
	}
	m["shard.hop_overhead_us"] = value{median(hop), "us"}
	return nil
}

// replay runs the traced requests again, in-process, on the replica, and
// records what the server's time would be made of, as spans laid from the
// start of the request's live tarserve.server span (the durations are
// measured, the positions are not): core.query (the cached
// QueryCtx the server runs) with children aggcache.probe, core.search (the
// same query with NoCache) and, inside it, tia.aggregate (Aggregate calls on
// the answer's POIs, scaled to the number of entries the search scored). On
// durable-mixed the replica's cache is invalidated wherever the live run
// acknowledged an ingest batch between two requests, and each batch's cost
// is recorded from wal.ingest_us and wal.apply_us.
func replay(ctx context.Context, wl workload, s *stream, rep *replica, live *liveOutcome, rec *recorder, m map[string]value) error {
	traced := live.traced
	sort.Slice(traced, func(i, j int) bool { return traced[i].sent < traced[j].sent })
	if len(traced) > replayRequests {
		traced = traced[:replayRequests]
	}
	keep := make(map[int]bool, len(traced))
	nextAck := 0
	noCache := &core.QueryOpts{NoCache: true}
	var replayed time.Duration
	for _, ts := range traced {
		keep[ts.request] = true
		for nextAck < len(live.ackTimes) && live.ackTimes[nextAck] < ts.sent {
			rep.cache.Invalidate()
			nextAck++
		}
		q := s.pool[ts.slot]
		if ts.cacheHit {
			if _, _, err := rep.tree.QueryCtx(ctx, q, nil); err != nil {
				return err
			}
		}
		t0 := ts.server
		begin := time.Now()
		_, st, err := rep.tree.QueryCtx(ctx, q, nil)
		if err != nil {
			return err
		}
		whole := time.Since(begin)
		replayed += whole
		rec.add(ts.request, "core.query", "tarserve.server", t0, t0+whole)
		if st.ResultCacheHit {
			rec.add(ts.request, "aggcache.probe", "core.query", t0, t0+whole)
			continue
		}
		begin = time.Now()
		res, st2, err := rep.tree.QueryCtx(ctx, q, noCache)
		if err != nil {
			return err
		}
		search := min(time.Since(begin), whole)
		var probes time.Duration
		if len(res) > 0 {
			begin = time.Now()
			for _, r := range res {
				if _, err := rep.tree.Aggregate(r.POI.ID, q.Iq); err != nil {
					return err
				}
			}
			probes = time.Since(begin) * time.Duration(st2.Scored) / time.Duration(len(res))
		}
		probe := whole - search
		rec.add(ts.request, "aggcache.probe", "core.query", t0, t0+probe)
		rec.add(ts.request, "core.search", "core.query", t0+probe, t0+whole)
		rec.add(ts.request, "tia.aggregate", "core.search", t0+probe, t0+probe+min(probes, search))
	}
	// Requests of the traced window that were not replayed leave the
	// reconciliation: drop their live spans.
	kept := rec.spans[:0]
	var roundtrips, outside time.Duration
	for _, sp := range rec.spans {
		if !keep[sp.Request] {
			continue
		}
		kept = append(kept, sp)
		switch sp.Name {
		case "client.roundtrip":
			roundtrips += time.Duration(sp.End - sp.Start)
			outside += time.Duration(sp.End - sp.Start)
		case "tarserve.server":
			outside -= time.Duration(sp.End - sp.Start)
		}
	}
	rec.spans = kept
	if wl.topo == topoDurable {
		ingest := time.Duration(m["wal.ingest_us"].Value * float64(time.Microsecond))
		apply := time.Duration(m["wal.apply_us"].Value * float64(time.Microsecond))
		for i, at := range live.ackTimes {
			id := -1 - i // ingest batches: negative request ids
			rec.add(id, "wal.ingest", "", at-ingest, at)
			rec.add(id, "wal.append+fsync", "wal.ingest", at-ingest, at-apply)
			rec.add(id, "core.apply", "wal.ingest", at-apply, at)
		}
	}
	ratio := 0.0
	if roundtrips > 0 {
		// What the round trips spent outside the server's own clock, plus
		// what the replay says the server's clock was spent on, over the
		// round trips. Below 1: server time the replay does not explain
		// (queueing, locks, GC, shard hops); above 1: the replay was slower
		// than the live server.
		ratio = float64(outside+replayed) / float64(roundtrips)
	}
	m["trace.reconcile_ratio"] = value{ratio, "ratio"}
	return nil
}
