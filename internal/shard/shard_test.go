package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/httpapi"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

// testDataset generates the small GS corpus all shard tests share.
func testDataset(t testing.TB) *lbsn.Dataset {
	t.Helper()
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		t.Fatal(err)
	}
	d, err := lbsn.Generate(spec.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPartitionInvariants(t *testing.T) {
	d := testDataset(t)
	pois := d.EffectivePOIs(0, 0)
	if len(pois) < 20 {
		t.Fatalf("only %d effective POIs", len(pois))
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7} {
		m, err := Partition(pois, n, d.World)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: invalid map: %v", n, err)
		}
		counts := make([]int, n)
		for _, p := range pois {
			idx := m.Locate(p.X, p.Y)
			if idx < 0 || idx >= n {
				t.Fatalf("n=%d: Locate(%v,%v) = %d out of range", n, p.X, p.Y, idx)
			}
			counts[idx]++
			r := m.Region(idx)
			if p.X < r.Min[0] || p.X > r.Max[0] || p.Y < r.Min[1] || p.Y > r.Max[1] {
				t.Fatalf("n=%d: POI %d at (%v,%v) located in shard %d but outside its region %v",
					n, p.ID, p.X, p.Y, idx, r)
			}
		}
		total := 0
		for i, c := range counts {
			total += c
			if n <= 4 && c == 0 {
				t.Errorf("n=%d: shard %d owns no POIs (counts %v)", n, i, counts)
			}
		}
		if total != len(pois) {
			t.Fatalf("n=%d: counts sum to %d, want %d", n, total, len(pois))
		}
	}
}

func TestPartitionMapSaveLoad(t *testing.T) {
	d := testDataset(t)
	pois := d.EffectivePOIs(0, 0)
	m, err := Partition(pois, 4, d.World)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "map.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMap(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pois {
		if a, b := m.Locate(p.X, p.Y), got.Locate(p.X, p.Y); a != b {
			t.Fatalf("POI %d: saved map locates %d, loaded map %d", p.ID, a, b)
		}
	}
	if _, err := LoadMap(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing map file succeeded")
	}
}

func TestLocateHalfOpenBoundary(t *testing.T) {
	world := geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}}
	m := &Map{N: 2, World: world, XSplits: []float64{50}, YSplits: [][]float64{nil, nil}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x, y float64
		want int
	}{
		{49.9999, 50, 0},
		{50, 50, 1}, // on the split: upper/right cell
		{50.0001, 50, 1},
		{-10, 50, 0}, // outside the world: nearest edge cell
		{110, 50, 1},
	}
	for _, c := range cases {
		if got := m.Locate(c.x, c.y); got != c.want {
			t.Errorf("Locate(%v,%v) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

// lockedViewer serves a shard's tree under a read-write lock, the way
// wal.Store does: queries View it under the read lock, and a test changes
// or replaces the tree under the write lock.
type lockedViewer struct {
	mu   sync.RWMutex
	tree *core.Tree
}

func (v *lockedViewer) View(f func(t *core.Tree)) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	f(v.tree)
}

// update serves from then on the tree f returns; f may change the tree it
// is given and return it.
func (v *lockedViewer) update(f func(t *core.Tree) *core.Tree) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tree = f(v.tree)
}

// shardTree builds shard idx's tree: over the full world, keeping only the
// POIs the map assigns to it.
func shardTree(t testing.TB, d *lbsn.Dataset, m *Map, idx int, opts lbsn.BuildOptions) *core.Tree {
	t.Helper()
	opts.Keep = func(p core.POI) bool { return m.Locate(p.X, p.Y) == idx }
	tr, err := d.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buildFleet builds one tree per shard and serves them over loopback HTTP;
// views let a test change or replace a shard's tree.
func buildFleet(t testing.TB, d *lbsn.Dataset, m *Map, opts lbsn.BuildOptions, fac func() tia.Factory) (urls []string, views []*lockedViewer) {
	t.Helper()
	for i := 0; i < m.N; i++ {
		o := opts
		if fac != nil {
			o.TIA = fac()
		}
		v := &lockedViewer{tree: shardTree(t, d, m, i, o)}
		mux := http.NewServeMux()
		(&Server{Data: v, Index: i, N: m.N, Region: m.Region(i)}).Register(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
		views = append(views, v)
	}
	return urls, views
}

// identical requires exact answer identity: the same POI ids in the same
// order, with bit-identical scores and aggregates.
func identical(t *testing.T, tag string, want, got []core.Result) {
	t.Helper()
	if d := diff(want, got); d != "" {
		t.Fatalf("%s: %s", tag, d)
	}
}

// diff is identical's comparison, safe off the test goroutine: it
// describes the first difference, or returns "" when there is none.
func diff(want, got []core.Result) string {
	if len(want) != len(got) {
		return fmt.Sprintf("result count %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.POI.ID != w.POI.ID {
			return fmt.Sprintf("rank %d: POI %d, want %d", i, g.POI.ID, w.POI.ID)
		}
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("rank %d (POI %d): score %v, want %v", i, w.POI.ID, g.Score, w.Score)
		}
		if g.Agg != w.Agg {
			return fmt.Sprintf("rank %d (POI %d): agg %d, want %d", i, w.POI.ID, g.Agg, w.Agg)
		}
	}
	return ""
}

// TestCoordinatorMatchesSingleNode is the identity property: across all
// three groupings, all three TIA backends and varying shard counts, the
// coordinator's merged top-k equals single-node execution exactly, and
// every query costs exactly one query request per shard and the whole
// battery one global-TIA fetch.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	d := testDataset(t)
	pois := d.EffectivePOIs(0, 0)
	groupings := []struct {
		name string
		g    core.Grouping
	}{{"tar", core.TAR3D}, {"spa", core.IndSpa}, {"agg", core.IndAgg}}
	factories := []struct {
		name string
		fac  func() tia.Factory
	}{
		{"mem", nil},
		{"btree", func() tia.Factory { return tia.NewBTreeFactory(1024, 0) }},
		{"mvbt", func() tia.Factory { return tia.NewMVBTFactory(1024, 0) }},
	}
	for gi, g := range groupings {
		for fi, f := range factories {
			n := 2 + (gi*3+fi)%3 // shard counts 2..4, varied across combos
			t.Run(fmt.Sprintf("%s/%s/n%d", g.name, f.name, n), func(t *testing.T) {
				m, err := Partition(pois, n, d.World)
				if err != nil {
					t.Fatal(err)
				}
				opts := lbsn.BuildOptions{Grouping: g.g, NodeSize: 256}
				var single *core.Tree
				{
					o := opts
					if f.fac != nil {
						o.TIA = f.fac()
					}
					if single, err = d.Build(o); err != nil {
						t.Fatal(err)
					}
				}
				urls, _ := buildFleet(t, d, m, opts, f.fac)
				met := NewMetrics(obs.NewRegistry())
				coord := &Coordinator{Shards: urls, Metrics: met}
				queries := d.Queries(12, 5, 0.3, int64(100+gi*10+fi))
				for qi, q := range queries {
					want, _, err := single.QueryCtx(context.Background(), q, &core.QueryOpts{NoCache: true})
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := coord.QueryCtx(context.Background(), q, nil)
					if err != nil {
						t.Fatalf("query %d: %v", qi, err)
					}
					identical(t, fmt.Sprintf("query %d", qi), want, got)
				}
				if got, want := met.Fanout.Value(), int64(n*len(queries)); got != want {
					t.Errorf("fanout %d over %d queries on %d shards, want %d", got, len(queries), n, want)
				}
				if got := met.GmaxFetches.Value(); got != 1 {
					t.Errorf("%d global-TIA fetches over %d queries on a static fleet, want 1", got, len(queries))
				}
			})
		}
	}
}

// TestCoordinatorKilledShard: a dead shard fails the whole query with a
// ShardError naming it — never a silently partial top-k.
func TestCoordinatorKilledShard(t *testing.T) {
	d := testDataset(t)
	pois := d.EffectivePOIs(0, 0)
	m, err := Partition(pois, 3, d.World)
	if err != nil {
		t.Fatal(err)
	}
	urls, _ := buildFleet(t, d, m, lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256}, nil)
	q := d.Queries(1, 5, 0.3, 7)[0]
	coord := &Coordinator{Shards: urls}
	if _, _, err := coord.QueryCtx(context.Background(), q, nil); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}

	// Kill shard 1: its server is gone, the query must fail loudly.
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()
	coord = &Coordinator{Shards: []string{urls[0], deadURL, urls[2]}}
	res, _, err := coord.QueryCtx(context.Background(), q, nil)
	if err == nil {
		t.Fatal("query over a killed shard succeeded")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %T does not unwrap to *ShardError: %v", err, err)
	}
	if se.Shard != 1 || se.URL != deadURL {
		t.Errorf("ShardError names shard %d (%s), want 1 (%s)", se.Shard, se.URL, deadURL)
	}
	if res != nil {
		t.Errorf("failed query still returned %d results", len(res))
	}
}

// TestCoordinatorTies: POIs with equal scores straddle the kth rank, inside
// each shard and across the split. A grid of integer points around the
// query point in a power-of-two world makes the scaled distances exact, and
// the check-in count depends on the distance alone, so every point scores
// bit-identically with its mirror and transposed images; ids are scattered
// so insertion order among ties is not id order. For every k the coordinator
// must return exactly the k smallest (score, id) pairs, computed by brute
// force, and exactly what the single node returns, tie for tie.
func TestCoordinatorTies(t *testing.T) {
	const start, end = 0, 64 * 7 * lbsn.Day
	d := &lbsn.Dataset{
		Spec:  lbsn.Spec{Start: start, End: end, MinEffective: 1},
		World: geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{128, 128}},
	}
	const side = 9 // a 9×9 grid centred on the query point
	for i := 0; i < side*side; i++ {
		dx, dy := i/side-side/2, i%side-side/2
		var times []int64
		for c := 0; c <= (dx*dx+dy*dy)%3; c++ {
			times = append(times, start+int64(c)*lbsn.Day)
		}
		d.POIs = append(d.POIs, lbsn.POI{
			ID: int64(1 + i*37%(side*side)), X: float64(64 + dx), Y: float64(64 + dy), Times: times,
		})
	}
	m := &Map{N: 2, World: d.World, XSplits: []float64{64}, YSplits: [][]float64{nil, nil}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256}
	single, err := d.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	urls, _ := buildFleet(t, d, m, opts, nil)
	coord := &Coordinator{Shards: urls}
	q := core.Query{X: 64, Y: 64, K: 1, Alpha0: 0.5, Iq: tia.Interval{Start: start, End: end}}
	var all []core.Result
	for _, p := range d.POIs {
		r, err := single.ScorePOI(q, p.ID)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, r)
	}
	slices.SortFunc(all, core.CompareResults)
	ties := 0
	for i := 1; i < len(all); i++ {
		if all[i].Score == all[i-1].Score {
			ties++
		}
	}
	if ties < len(all)/2 {
		t.Fatalf("only %d of %d scores tie their predecessor; the grid lost its symmetry", ties, len(all))
	}
	for k := 1; k <= len(all); k++ {
		q.K = k
		got, _, err := coord.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		identical(t, fmt.Sprintf("k=%d: coordinator against brute force", k), all[:k], got)
		one, _, err := single.QueryCtx(context.Background(), q, &core.QueryOpts{NoCache: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		identical(t, fmt.Sprintf("k=%d: coordinator against the single node", k), one, got)
	}
}

// TestCoordinatorUnencodableQuery: the coordinator rejects a NaN
// coordinate as invalid (Query.Validate) before it calls any shard.
func TestCoordinatorUnencodableQuery(t *testing.T) {
	d := testDataset(t)
	m, err := Partition(d.EffectivePOIs(0, 0), 2, d.World)
	if err != nil {
		t.Fatal(err)
	}
	urls, _ := buildFleet(t, d, m, lbsn.BuildOptions{}, nil)
	coord := &Coordinator{Shards: urls}
	q := d.Queries(1, 5, 0.3, 7)[0]
	q.X = math.NaN()
	if _, _, err := coord.QueryCtx(context.Background(), q, nil); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("a NaN query point: err = %v, want ErrInvalid", err)
	}
}

// mutatingViewer mutates the tree before every View call, simulating live
// ingest between any two shard requests.
type mutatingViewer struct {
	tree   *core.Tree
	mutate func(t *core.Tree)
}

func (v *mutatingViewer) View(f func(t *core.Tree)) {
	v.mutate(v.tree)
	f(v.tree)
}

// TestCoordinatorUnderIngest: a shard whose index mutates before every
// request still answers every query with k results — each shard query runs
// its whole search under one View, so no mutation can split it. Buffered
// check-ins do not move the global TIA, so one fetch serves every query.
func TestCoordinatorUnderIngest(t *testing.T) {
	d := testDataset(t)
	tr, err := d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var poi int64 = -1
	tr.POIs(func(p core.POI, _ int64) bool { poi = p.ID; return false })
	views := 0
	mux := http.NewServeMux()
	(&Server{Data: &mutatingViewer{tree: tr, mutate: func(tr *core.Tree) {
		views++
		if err := tr.AddCheckIn(poi, d.Spec.End-1); err != nil {
			t.Errorf("ingest: %v", err)
		}
	}}, Index: 0, N: 1}).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	coord := &Coordinator{Shards: []string{srv.URL}}
	queries := d.Queries(8, 5, 0.3, 11)
	for qi, q := range queries {
		res, _, err := coord.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("query %d under ingest: %v", qi, err)
		}
		if len(res) != q.K {
			t.Errorf("query %d under ingest returned %d results, want %d", qi, len(res), q.K)
		}
	}
	if views != len(queries)+1 {
		t.Errorf("%d views over %d queries, want one per query plus the one fetch", views, len(queries))
	}
}

// serveShard runs one request through srv's routes, a query as its TSQ1
// body and no body when req is nil.
func serveShard(srv *Server, method, path string, req *queryRequest) *httptest.ResponseRecorder {
	mux := http.NewServeMux()
	srv.Register(mux)
	var rd io.Reader
	if req != nil {
		rd = bytes.NewReader(appendQuery(nil, req))
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// TestShardQueryLeavesNothingUnfolded sends one shard query, under the
// stamp the shard's /v1/shard/gmax reported, and checks that every shared
// book already holds what its search counted by the time the reply is
// written: the factory's page ledger gained exactly the reply's TIA reads,
// and the probe counter exactly its scored entries (the coordinator
// supplies gmax, so the shard probes only the entries it scores).
func TestShardQueryLeavesNothingUnfolded(t *testing.T) {
	d := testDataset(t)
	for _, be := range []struct {
		name string
		kind tia.BackendKind
		fac  tia.Factory
	}{
		{"btree", tia.KindBTree, tia.NewBTreeFactory(1024, 10)},
		{"mvbt", tia.KindMVBT, tia.NewMVBTFactory(1024, 10)},
	} {
		t.Run(be.name, func(t *testing.T) {
			tr, err := d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256, TIA: be.fac})
			if err != nil {
				t.Fatal(err)
			}
			srv := &Server{Data: TreeViewer{Tree: tr}, Index: 0, N: 1}
			var gm gmaxResponse
			if err := json.Unmarshal(serveShard(srv, http.MethodGet, "/v1/shard/gmax", nil).Body.Bytes(), &gm); err != nil {
				t.Fatal(err)
			}
			q := d.Queries(1, 5, 0.3, 13)[0]
			built := be.fac.Ledger().Stats()
			probes0 := tia.ProbeCount(be.kind)

			rec := serveShard(srv, http.MethodPost, "/v1/shard/query", &queryRequest{
				X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
				Start: q.Iq.Start, End: q.Iq.End, Gmax: 100, Stamp: gm.Stamp,
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			rp, err := decodeReply(rec.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if want := min(q.K, tr.Len()); len(rp.Candidates) != want {
				t.Fatalf("%d candidates, want min(k=%d, %d POIs)", len(rp.Candidates), q.K, tr.Len())
			}
			if rp.Stats.TIAAccesses == 0 {
				t.Fatal("the query read no TIA page")
			}
			if got := be.fac.Ledger().Stats().Sub(built).LogicalReads; got != rp.Stats.TIAAccesses {
				t.Errorf("factory saw %d page reads, the reply reports %d", got, rp.Stats.TIAAccesses)
			}
			if got := tia.ProbeCount(be.kind) - probes0; got != int64(rp.Stats.Scored) {
				t.Errorf("probe counter gained %d, the reply scored %d entries", got, rp.Stats.Scored)
			}
		})
	}
}

// TestShardQueryBodyLimit: a shard query body over maxQueryBody is refused
// with the 413 envelope, before any search runs.
func TestShardQueryBodyLimit(t *testing.T) {
	d := testDataset(t)
	tr, err := d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Data: TreeViewer{Tree: tr}, Index: 0, N: 1}
	mux := http.NewServeMux()
	srv.Register(mux)
	body := `{"x":50,"y":50,"k":3,"alpha":0.5,"start":0,"end":100,"gmax":1,"pad":"` +
		strings.Repeat("a", maxQueryBody) + `"}`
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize shard query: status %d, want 413: %.200s", rec.Code, rec.Body.String())
	}
	var env httpapi.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != httpapi.CodeForStatus(rec.Code) || env.Error.Message == "" {
		t.Errorf("oversize shard query: body %.200q is not the error envelope (%v)", rec.Body.String(), err)
	}
}

// TestShardQueryStaleStamp: a shard query whose stamp is not the shard's
// current one — missing, older, or another tree's — gets the 409 conflict
// envelope carrying the current stamp, and no search runs.
func TestShardQueryStaleStamp(t *testing.T) {
	d := testDataset(t)
	tr, err := d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	met := NewMetrics(obs.NewRegistry())
	srv := &Server{Data: TreeViewer{Tree: tr}, Index: 0, N: 1, Metrics: met}
	q := d.Queries(1, 5, 0.3, 13)[0]
	cur := tr.GlobalStamp()
	for name, stamp := range map[string]core.GlobalStamp{
		"missing":        {},
		"older":          {Instance: cur.Instance, Seq: cur.Seq - 1},
		"other instance": {Instance: cur.Instance + 1, Seq: cur.Seq},
	} {
		probes0 := tia.ProbeCount(tia.KindMem)
		rec := serveShard(srv, http.MethodPost, "/v1/shard/query", &queryRequest{
			X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
			Start: q.Iq.Start, End: q.Iq.End, Gmax: 100, Stamp: stamp,
		})
		if rec.Code != http.StatusConflict {
			t.Fatalf("%s stamp: status %d, want 409: %s", name, rec.Code, rec.Body.String())
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Details struct {
					Stamp core.GlobalStamp `json:"stamp"`
				} `json:"details"`
			} `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != httpapi.CodeConflict || env.Error.Details.Stamp != cur {
			t.Errorf("%s stamp: envelope code %q stamp %+v, want %q and the current %+v",
				name, env.Error.Code, env.Error.Details.Stamp, httpapi.CodeConflict, cur)
		}
		if got := tia.ProbeCount(tia.KindMem) - probes0; got != 0 {
			t.Errorf("%s stamp: the refused query probed %d TIAs", name, got)
		}
	}
	if got := met.Candidates.Value(); got != 0 {
		t.Errorf("refused queries sent up %d candidates", got)
	}
}

// stampFleet is a 2-shard fleet beside a single-node tree over the same
// data, with the changes that move a shard's stamp: steps[0] flushes an
// epoch that raises shard 1's global maximum (the same check-ins reach the
// single-node tree), and steps[1] restarts shard 0 — a tree built afresh
// over its unchanged data, whose stamp counter equals the old one and
// whose instance does not. Each step runs on the test goroutine while no
// query is in flight, and fails the test unless the stamp moved. The
// queries' intervals cover the flushed epoch, so a stale gmax would change
// every score.
type stampFleet struct {
	single  *core.Tree
	coord   *Coordinator
	met     *Metrics
	queries []core.Query
	steps   []func()
}

func newStampFleet(t *testing.T) *stampFleet {
	d := testDataset(t)
	m, err := Partition(d.EffectivePOIs(0, 0), 2, d.World)
	if err != nil {
		t.Fatal(err)
	}
	opts := lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256}
	single, err := d.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	urls, views := buildFleet(t, d, m, opts, nil)
	f := &stampFleet{single: single, met: NewMetrics(obs.NewRegistry())}
	f.coord = &Coordinator{Shards: urls, Metrics: f.met}

	at := d.Spec.End - 1
	epoch := single.Epochs().EpochOf(at)
	f.queries = d.Queries(10, 5, 0.3, 17)
	for i := range f.queries {
		f.queries[i].Iq = tia.Interval{Start: epoch.Start - int64(i)*7*lbsn.Day, End: epoch.End}
	}
	// More check-ins than any epoch's worldwide maximum, so the flush raises
	// the merged global TIA too.
	var n int64
	for _, r := range single.GlobalRecords() {
		n = max(n, r.Agg+1)
	}
	burst := func(tr *core.Tree, poi int64) {
		for i := int64(0); i < n; i++ {
			if err := tr.AddCheckIn(poi, at); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	moved := func(tag string, before, after core.GlobalStamp) {
		if before == after {
			t.Fatalf("%s left the shard's stamp at %+v", tag, before)
		}
	}
	f.steps = []func(){
		func() {
			views[1].update(func(tr *core.Tree) *core.Tree {
				poi := int64(math.MaxInt64)
				tr.POIs(func(p core.POI, _ int64) bool { poi = min(poi, p.ID); return true })
				before := tr.GlobalStamp()
				burst(tr, poi)
				burst(single, poi)
				moved("the flush", before, tr.GlobalStamp())
				return tr
			})
		},
		func() {
			views[0].update(func(old *core.Tree) *core.Tree {
				fresh := shardTree(t, d, m, 0, opts)
				before, after := old.GlobalStamp(), fresh.GlobalStamp()
				if before.Seq != after.Seq {
					t.Fatalf("a rebuild over the same data counts %d global changes, the original %d", after.Seq, before.Seq)
				}
				moved("the restart", before, after)
				return fresh
			})
		},
	}
	return f
}

// want is single-node execution of every query.
func (f *stampFleet) want(t *testing.T) [][]core.Result {
	out := make([][]core.Result, len(f.queries))
	for i, q := range f.queries {
		var err error
		if out[i], _, err = f.single.QueryCtx(context.Background(), q, &core.QueryOpts{NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCoordinatorRefetchesWhenAStampMoves: after an epoch flush that raises
// a shard's global maximum, and after a shard restart, the next query
// equals single-node execution on the data as it now stands, bit for bit,
// and each change costs exactly one global-TIA fetch.
func TestCoordinatorRefetchesWhenAStampMoves(t *testing.T) {
	f := newStampFleet(t)
	for phase := 0; ; phase++ {
		want := f.want(t)
		for qi, q := range f.queries {
			got, _, err := f.coord.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatalf("phase %d query %d: %v", phase, qi, err)
			}
			identical(t, fmt.Sprintf("phase %d query %d", phase, qi), want[qi], got)
		}
		if got := f.met.GmaxFetches.Value(); got != int64(phase+1) {
			t.Errorf("phase %d: %d global-TIA fetches, want %d", phase, got, phase+1)
		}
		if phase == len(f.steps) {
			break
		}
		f.steps[phase]()
	}
	// Each refused query ran once more: one query request per shard per
	// query, plus one per shard per change.
	if got, want := f.met.Fanout.Value(), int64(2*((len(f.steps)+1)*len(f.queries)+len(f.steps))); got != want {
		t.Errorf("fanout %d, want %d", got, want)
	}
}

// TestCoordinatorConcurrentInvalidation: 8 goroutines query the fleet in
// each phase while the changes between phases drop the coordinator's view.
// No query fails, and every answer equals single-node execution for its
// phase.
func TestCoordinatorConcurrentInvalidation(t *testing.T) {
	f := newStampFleet(t)
	for phase := 0; ; phase++ {
		want := f.want(t)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range f.queries {
					qi := (i + g) % len(f.queries)
					got, _, err := f.coord.QueryCtx(context.Background(), f.queries[qi], nil)
					if err != nil {
						t.Errorf("phase %d goroutine %d query %d: %v", phase, g, qi, err)
						return
					}
					if d := diff(want[qi], got); d != "" {
						t.Errorf("phase %d goroutine %d query %d: %s", phase, g, qi, d)
					}
				}
			}()
		}
		wg.Wait()
		if phase == len(f.steps) {
			break
		}
		f.steps[phase]()
	}
}
