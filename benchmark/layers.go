package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/lbsn"
	"tartree/internal/pagestore"
	"tartree/internal/rstar"
	"tartree/internal/tia"
	"tartree/internal/wal"
)

// This file takes the per-layer numbers that need no server: it calls each
// package's public functions in the harness process, on a replica of the
// index the servers build. tarserve itself gains no flag, span or counter.
// It is also the only file that a later change to one of these packages'
// signatures has to touch.

const (
	// serverCacheBytes is tarserve's default -cache-bytes; the replica gets
	// the same cache so that a replayed request meets the same hits.
	serverCacheBytes = 64 << 20
	// nodeSize and tiaSlots are the tree's defaults (core.Options).
	nodeSize = 1024
	tiaSlots = 10
	// layerQueries is how many of the stream's distinct queries the
	// in-process loops run.
	layerQueries = 300
	// tiaPairs is how many (POI, interval) pairs the TIA loops probe.
	tiaPairs = 256
)

// replica is the in-process twin of a server's index.
type replica struct {
	tree   *core.Tree
	cache  *aggcache.Cache
	build  time.Duration
	freeze time.Duration
}

func buildReplica(w *world) (*replica, error) {
	r := &replica{cache: aggcache.New(serverCacheBytes)}
	begin := time.Now()
	tr, err := w.data.Build(lbsn.BuildOptions{Cache: r.cache})
	if err != nil {
		return nil, err
	}
	r.build = time.Since(begin)
	begin = time.Now()
	tr.Freeze()
	r.freeze = time.Since(begin)
	r.tree = tr
	return r, nil
}

// layerMetrics runs every in-process loop. queries are distinct queries of
// the workload's stream.
func layerMetrics(ctx context.Context, cfg *config, w *world, rep *replica, queries []core.Query) (map[string]value, error) {
	if len(queries) > layerQueries {
		queries = queries[:layerQueries]
	}
	m := map[string]value{
		"lbsn.generate_s": {w.generate.Seconds(), "s"},
		"core.build_s":    {rep.build.Seconds(), "s"},
		"rstar.freeze_ms": {ms(rep.freeze), "ms"},
	}
	noCache := &core.QueryOpts{NoCache: true}
	search := func() (perQuery time.Duration, nodes float64, err error) {
		var accesses int64
		begin := time.Now()
		for _, q := range queries {
			_, st, err := rep.tree.QueryCtx(ctx, q, noCache)
			if err != nil {
				return 0, 0, err
			}
			accesses += st.NodeAccesses()
		}
		n := time.Duration(len(queries))
		return time.Since(begin) / n, float64(accesses) / float64(n), nil
	}
	if _, _, err := search(); err != nil { // fills the TIA page buffers
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frozen, nodes, err := search()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	n := float64(len(queries))
	m["core.allocs_per_query"] = value{float64(after.Mallocs-before.Mallocs) / n, "count"}
	m["core.bytes_per_query"] = value{float64(after.TotalAlloc-before.TotalAlloc) / n, "B"}

	// Frozen and pointer layouts take turns, each keeping its best pass, so
	// neither is measured on a warmer machine than the other.
	var pointer time.Duration
	for round := 0; round < 3; round++ {
		rep.tree.Unfreeze()
		p, _, err := search()
		rep.tree.Freeze()
		if err != nil {
			return nil, err
		}
		if round == 0 || p < pointer {
			pointer = p
		}
		f, _, err := search()
		if err != nil {
			return nil, err
		}
		frozen = min(frozen, f)
	}
	m["core.search_us"] = value{us(frozen), "us"}
	m["core.search_pointer_us"] = value{us(pointer), "us"}
	// What the flat layout saves per node access against the pointer tree.
	m["rstar.flat_expand_ns"] = value{float64(pointer-frozen) / nodes, "ns"}

	begin := time.Now()
	for _, q := range queries {
		if _, err := w.scan.Query(q); err != nil {
			return nil, err
		}
	}
	scan := time.Since(begin) / time.Duration(len(queries))
	m["seqscan.query_us"] = value{us(scan), "us"}
	m["seqscan.vs_index_ratio"] = value{float64(scan) / float64(frozen), "ratio"}

	m["geo.mindist_ns"] = value{minDistNs(rep.tree, queries), "ns"}
	m["pagestore.get_hit_ns"], err = bufferGetNs()
	if err != nil {
		return nil, err
	}
	m["aggcache.get_ns"], m["aggcache.put_ns"] = cacheNs()
	if err := tiaAggregateNs(w, queries, m); err != nil {
		return nil, err
	}
	if err := walIngest(cfg, w, m); err != nil {
		return nil, err
	}
	return m, nil
}

// minDistNs times geo.MinDist for the queries' points against every entry
// rectangle of the replica, the call the search makes once per scored entry.
func minDistNs(tr *core.Tree, queries []core.Query) float64 {
	var rects []geo.Rect
	var walk func(n *rstar.Node)
	walk = func(n *rstar.Node) {
		for i := range n.Entries {
			rects = append(rects, n.Entries[i].Rect)
			if c := n.Entries[i].Child; c != nil {
				walk(c)
			}
		}
	}
	walk(tr.Root())
	points := queries[:min(len(queries), 64)]
	var sink float64
	begin := time.Now()
	for _, q := range points {
		v := geo.Vector{q.X, q.Y}
		for i := range rects {
			sink += geo.MinDist(v, rects[i], 2)
		}
	}
	elapsed := time.Since(begin)
	if sink < 0 {
		panic("unreachable: distances are non-negative") // keeps the loop's result live
	}
	return float64(elapsed) / float64(len(points)*len(rects))
}

// bufferGetNs times Buffer.Get on pages that are all resident.
func bufferGetNs() (value, error) {
	buf := pagestore.NewBuffer(pagestore.NewMemFile(nodeSize), tiaSlots)
	ids := make([]pagestore.PageID, tiaSlots)
	page := make([]byte, nodeSize)
	for i := range ids {
		id, err := buf.Alloc()
		if err != nil {
			return value{}, err
		}
		if err := buf.Put(id, page); err != nil {
			return value{}, err
		}
		ids[i] = id
	}
	const rounds = 200000
	begin := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := buf.Get(ids[i%len(ids)]); err != nil {
			return value{}, err
		}
	}
	return value{float64(time.Since(begin)) / rounds, "ns"}, nil
}

// cacheNs times aggcache Put and hitting Get on keys of the shape core uses
// (a comparable struct, hashed by the caller).
func cacheNs() (get, put value) {
	type key struct{ a, b uint64 }
	const entries = 4096
	c := aggcache.New(serverCacheBytes)
	keys := make([]key, entries)
	hashes := make([]uint64, entries)
	for i := range keys {
		keys[i] = key{uint64(i), uint64(i) * 7}
		hashes[i] = aggcache.Mix(aggcache.Mix(aggcache.Seed, keys[i].a), keys[i].b)
	}
	begin := time.Now()
	for i, k := range keys {
		c.Put(hashes[i], k, int64(i), 8)
	}
	put = value{float64(time.Since(begin)) / entries, "ns"}
	const rounds = 50
	begin = time.Now()
	for r := 0; r < rounds; r++ {
		for i, k := range keys {
			c.Get(hashes[i], k)
		}
	}
	get = value{float64(time.Since(begin)) / (rounds * entries), "ns"}
	return get, put
}

// tiaAggregateNs times (*Tree).Aggregate on the three TIA backends. A POI's
// TIA depends only on its own history, so each backend's replica indexes
// just the probed POIs.
func tiaAggregateNs(w *world, queries []core.Query, m map[string]value) error {
	type pair struct {
		id int64
		iv tia.Interval
	}
	n := min(tiaPairs, len(w.effective))
	pairs := make([]pair, n)
	keep := make(map[int64]bool, n)
	for i := range pairs {
		p := w.effective[i*len(w.effective)/n]
		pairs[i] = pair{id: p.ID, iv: queries[i%len(queries)].Iq}
		keep[p.ID] = true
	}
	backends := []struct {
		name    string
		factory tia.Factory
	}{
		{"mem", tia.NewMemFactory()},
		{"btree", tia.NewBTreeFactory(nodeSize, tiaSlots)},
		{"mvbt", tia.NewMVBTFactory(nodeSize, tiaSlots)},
	}
	for _, b := range backends {
		tr, err := w.data.Build(lbsn.BuildOptions{
			TIA:  b.factory,
			Keep: func(p core.POI) bool { return keep[p.ID] },
		})
		if err != nil {
			return fmt.Errorf("building the %s replica: %w", b.name, err)
		}
		const rounds = 40
		var best time.Duration
		for r := 0; r < rounds; r++ {
			begin := time.Now()
			for _, p := range pairs {
				if _, err := tr.Aggregate(p.id, p.iv); err != nil {
					return err
				}
			}
			if d := time.Since(begin); r == 0 || d < best {
				best = d
			}
		}
		m["tia.aggregate_ns."+b.name] = value{float64(best) / float64(len(pairs)), "ns"}
	}
	return nil
}

// walBatches is how many batches the in-process WAL loop ingests.
const walBatches = 40

// walIngest opens a wal.Store on a scratch directory (fsync on, as the
// durable-mixed server runs) and times Store.Ingest per batch, then the
// apply half alone (AddCheckIn on the same tree), which splits a batch into
// append+fsync and apply.
func walIngest(cfg *config, w *world, m map[string]value) error {
	r := rand.New(rand.NewSource(cfg.seed))
	batches := ingestBatches(w, r, walBatches)
	keep := make(map[int64]bool)
	for _, b := range batches {
		for _, c := range b {
			keep[c.POI] = true
		}
	}
	dir, err := os.MkdirTemp(cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := wal.NewDirFS(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	store, err := wal.OpenStore(fs, func() (*core.Tree, error) {
		return w.data.Build(lbsn.BuildOptions{Keep: func(p core.POI) bool { return keep[p.ID] }})
	}, wal.StoreOptions{SnapshotV3: true})
	if err != nil {
		return err
	}
	ingest := make([]float64, 0, len(batches))
	for _, b := range batches {
		cs := make([]wal.CheckIn, len(b))
		for i, c := range b {
			cs[i] = wal.CheckIn{POI: c.POI, At: c.Ts}
		}
		begin := time.Now()
		if _, err := store.Ingest(cs); err != nil {
			store.Close()
			return err
		}
		ingest = append(ingest, us(time.Since(begin)))
	}
	tree := store.Tree()
	if err := store.Close(); err != nil {
		return err
	}
	apply := make([]float64, 0, len(batches))
	for _, b := range batches {
		begin := time.Now()
		for _, c := range b {
			if err := tree.AddCheckIn(c.POI, c.Ts); err != nil {
				return err
			}
		}
		apply = append(apply, us(time.Since(begin)))
	}
	sort.Float64s(ingest)
	sort.Float64s(apply)
	m["wal.ingest_us"] = value{quantile(ingest, 0.5), "us"}
	m["wal.apply_us"] = value{quantile(apply, 0.5), "us"}
	return nil
}
