package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

// testDataset generates the small GS corpus all shard tests share.
func testDataset(t *testing.T) *lbsn.Dataset {
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

// buildFleet builds one tree per shard (each over the full world, keeping
// only its slice) and serves them over loopback HTTP.
func buildFleet(t *testing.T, d *lbsn.Dataset, m *Map, opts lbsn.BuildOptions, fac func() tia.Factory) []string {
	t.Helper()
	urls := make([]string, m.N)
	for i := 0; i < m.N; i++ {
		idx := i
		o := opts
		if fac != nil {
			o.TIA = fac()
		}
		o.Keep = func(p core.POI) bool { return m.Locate(p.X, p.Y) == idx }
		tr, err := d.Build(o)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		(&Server{Data: TreeViewer{Tree: tr}, Index: idx, N: m.N, Region: m.Region(idx)}).Register(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// identical requires exact answer identity: the same POI ids with
// bit-identical scores and aggregates, canonicalized by (score, id) so a
// measure-zero tie cannot order-flake the comparison.
func identical(t *testing.T, tag string, want, got []core.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: result count %d, want %d", tag, len(got), len(want))
	}
	canon := func(rs []core.Result) []core.Result {
		out := append([]core.Result(nil), rs...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Score != out[j].Score {
				return out[i].Score < out[j].Score
			}
			return out[i].POI.ID < out[j].POI.ID
		})
		return out
	}
	a, b := canon(want), canon(got)
	for i := range a {
		if a[i].POI.ID != b[i].POI.ID {
			t.Fatalf("%s: rank %d: POI %d, want %d", tag, i, b[i].POI.ID, a[i].POI.ID)
		}
		if math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			t.Fatalf("%s: rank %d (POI %d): score %v, want %v", tag, i, a[i].POI.ID, b[i].Score, a[i].Score)
		}
		if a[i].Agg != b[i].Agg {
			t.Fatalf("%s: rank %d (POI %d): agg %d, want %d", tag, i, a[i].POI.ID, b[i].Agg, a[i].Agg)
		}
	}
}

// TestCoordinatorMatchesSingleNode is the identity property: across all
// three groupings, all three TIA backends and varying shard counts, the
// coordinator's merged top-k equals single-node execution exactly, and
// every query costs exactly one query request per shard.
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
				urls := buildFleet(t, d, m, opts, f.fac)
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
	urls := buildFleet(t, d, m, lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256}, nil)
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
// so pop order among ties is not id order. For every k the coordinator must
// return exactly the k smallest (score, id) pairs, computed by brute force.
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
	coord := &Coordinator{Shards: buildFleet(t, d, m, opts, nil)}
	q := core.Query{X: 64, Y: 64, K: 1, Alpha0: 0.5, Iq: tia.Interval{Start: start, End: end}}
	var all []core.Result
	for _, p := range d.POIs {
		r, err := single.ScorePOI(q, p.ID)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score < all[j].Score
		}
		return all[i].POI.ID < all[j].POI.ID
	})
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
		if len(got) != k {
			t.Fatalf("k=%d: %d results", k, len(got))
		}
		for i, r := range got {
			if r.POI.ID != all[i].POI.ID || math.Float64bits(r.Score) != math.Float64bits(all[i].Score) {
				t.Fatalf("k=%d rank %d: POI %d score %v, want POI %d score %v", k, i, r.POI.ID, r.Score, all[i].POI.ID, all[i].Score)
			}
		}
	}
}

// TestCoordinatorUnencodableQuery: a NaN coordinate passes validation but
// has no JSON form; the coordinator rejects the query as invalid.
func TestCoordinatorUnencodableQuery(t *testing.T) {
	d := testDataset(t)
	m, err := Partition(d.EffectivePOIs(0, 0), 2, d.World)
	if err != nil {
		t.Fatal(err)
	}
	coord := &Coordinator{Shards: buildFleet(t, d, m, lbsn.BuildOptions{}, nil)}
	q := d.Queries(1, 5, 0.3, 7)[0]
	q.X = math.NaN()
	if _, _, err := coord.QueryCtx(context.Background(), q, nil); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("a NaN query point: err = %v, want ErrInvalid", err)
	}
}

// mutatingViewer mutates the tree before every View call, simulating live
// ingest between the gmax exchange and the shard query.
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
// its whole search under one View, so no mutation can split it.
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
	if views != 2*len(queries) {
		t.Errorf("%d views over %d queries, want 2 per query (gmax, search)", views, len(queries))
	}
}

// TestSessionRoundsLeaveNothingUnfolded sends one shard query and checks
// that every shared book already holds what its search counted by the time
// the reply is written: the factory's page ledger gained exactly the reply's
// TIA reads, and the probe counter exactly its scored entries (the
// coordinator supplies gmax, so the shard probes only the entries it
// scores).
func TestSessionRoundsLeaveNothingUnfolded(t *testing.T) {
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
			q := d.Queries(1, 5, 0.3, 13)[0]
			built := be.fac.Ledger().Stats()
			probes0 := tia.ProbeCount(be.kind)

			body, _ := json.Marshal(queryRequest{
				X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
				Start: q.Iq.Start, End: q.Iq.End, Gmax: 100,
			})
			rec := httptest.NewRecorder()
			srv.HandleQuery(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			var rp queryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &rp); err != nil {
				t.Fatal(err)
			}
			if len(rp.Candidates) < q.K {
				t.Fatalf("%d candidates, want at least k=%d", len(rp.Candidates), q.K)
			}
			if rp.Stats.TIAReads == 0 {
				t.Fatal("the query read no TIA page")
			}
			if got := be.fac.Ledger().Stats().Sub(built).LogicalReads; got != rp.Stats.TIAReads {
				t.Errorf("factory saw %d page reads, the reply reports %d", got, rp.Stats.TIAReads)
			}
			if got := tia.ProbeCount(be.kind) - probes0; got != int64(rp.Stats.Scored) {
				t.Errorf("probe counter gained %d, the reply scored %d entries", got, rp.Stats.Scored)
			}
		})
	}
}
