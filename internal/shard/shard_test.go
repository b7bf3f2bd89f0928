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
	"strings"
	"testing"
	"time"

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
// coordinator's merged top-k — built from small batches so the global bound
// is pushed mid-query — equals single-node execution exactly.
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
				coord := &Coordinator{Shards: urls, Batch: 2, Metrics: met}
				for qi, q := range d.Queries(12, 5, 0.3, int64(100+gi*10+fi)) {
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
				if met.BoundPushes.Value() == 0 {
					t.Error("no bound pushes across the battery; the global bound never reached the shards")
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

// mutatingViewer mutates the tree before selected View calls, simulating
// concurrent ingest between scatter-gather rounds.
type mutatingViewer struct {
	tree   *core.Tree
	views  int
	mutate func(t *core.Tree, view int)
}

func (v *mutatingViewer) View(f func(t *core.Tree)) {
	v.views++
	if v.mutate != nil {
		v.mutate(v.tree, v.views)
	}
	f(v.tree)
}

// driftFleet serves one shard whose index mutates mid-query per mutate.
func driftFleet(t *testing.T, d *lbsn.Dataset, mutate func(tr *core.Tree, view int)) []string {
	t.Helper()
	tr, err := d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	(&Server{Data: &mutatingViewer{tree: tr, mutate: mutate}, Index: 0, N: 1}).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return []string{srv.URL}
}

// driftMutation bumps the tree version the way live ingest would.
func driftMutation(t *testing.T, d *lbsn.Dataset) func(tr *core.Tree, view int) {
	t.Helper()
	return func(tr *core.Tree, view int) {
		var id int64 = -1
		tr.POIs(func(p core.POI, _ int64) bool { id = p.ID; return false })
		if id < 0 {
			t.Error("drift mutation: tree has no POIs")
			return
		}
		if err := tr.AddCheckIn(id, d.Spec.End-1); err != nil {
			t.Errorf("drift mutation: %v", err)
		}
	}
}

// TestCoordinatorVersionDrift: one mutation between rounds makes the shard
// answer 410; the coordinator restarts that shard's search (dropping its
// dead-version candidates) and still completes.
func TestCoordinatorVersionDrift(t *testing.T) {
	d := testDataset(t)
	mut := driftMutation(t, d)
	// View 1 is the gmax exchange, view 2 the session open; mutating at
	// view 3 invalidates the session exactly once, mid-query.
	urls := driftFleet(t, d, func(tr *core.Tree, view int) {
		if view == 3 {
			mut(tr, view)
		}
	})
	met := NewMetrics(obs.NewRegistry())
	coord := &Coordinator{Shards: urls, Batch: 1, Metrics: met}
	q := d.Queries(1, 5, 0.3, 11)[0]
	res, _, err := coord.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("drifted query failed outright: %v", err)
	}
	if len(res) != 5 {
		t.Errorf("drifted query returned %d results, want 5", len(res))
	}
	if met.Restarts.Value() == 0 {
		t.Error("version drift did not register a restart")
	}
}

// TestCoordinatorDriftGivesUp: an index that mutates on every round can
// never hold a session; after MaxRestarts the coordinator fails loudly.
func TestCoordinatorDriftGivesUp(t *testing.T) {
	d := testDataset(t)
	mut := driftMutation(t, d)
	urls := driftFleet(t, d, func(tr *core.Tree, view int) {
		if view >= 3 {
			mut(tr, view)
		}
	})
	met := NewMetrics(obs.NewRegistry())
	coord := &Coordinator{Shards: urls, Batch: 1, MaxRestarts: 2, Metrics: met}
	q := d.Queries(1, 5, 0.3, 11)[0]
	_, _, err := coord.QueryCtx(context.Background(), q, nil)
	if err == nil {
		t.Fatal("perpetually drifting shard did not fail the query")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %T does not unwrap to *ShardError: %v", err, err)
	}
	if !strings.Contains(err.Error(), "gave up") {
		t.Errorf("give-up error does not say so: %v", err)
	}
	if got := met.Restarts.Value(); got != 3 {
		t.Errorf("%d restarts before giving up, want 3 (MaxRestarts+1 attempts)", got)
	}
}

// TestSessionTTL: a session abandoned past its TTL answers 410 Gone.
func TestSessionTTL(t *testing.T) {
	d := testDataset(t)
	tr, err := d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	srv := &Server{
		Data:       TreeViewer{Tree: tr},
		Index:      0,
		N:          1,
		SessionTTL: 10 * time.Second,
		now:        func() time.Time { return clock },
	}
	q := d.Queries(1, 5, 0.3, 13)[0]
	body, _ := json.Marshal(queryRequest{
		X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
		Start: q.Iq.Start, End: q.Iq.End, Gmax: 100, Batch: 1,
	})
	rec := httptest.NewRecorder()
	srv.HandleQuery(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("open: status %d: %s", rec.Code, rec.Body.String())
	}
	var rr roundResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Done {
		t.Fatal("session finished in one round; batch 1 should leave a frontier")
	}

	next := func() *httptest.ResponseRecorder {
		nb, _ := json.Marshal(nextRequest{Session: rr.Session, Batch: 1})
		rec := httptest.NewRecorder()
		srv.HandleNext(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/next", bytes.NewReader(nb)))
		return rec
	}
	if rec := next(); rec.Code != http.StatusOK {
		t.Fatalf("live session: status %d: %s", rec.Code, rec.Body.String())
	}
	clock = clock.Add(11 * time.Second)
	if rec := next(); rec.Code != http.StatusGone {
		t.Fatalf("expired session: status %d, want 410: %s", rec.Code, rec.Body.String())
	}
}

// TestSessionRoundsLeaveNothingUnfolded drives one shard session round by
// round and, each time the session is parked between rounds, checks that
// every shared book already holds what the session's search has counted so
// far: a search that lives across requests folds its page traffic and
// probes before it hands control back, so an abandoned or expired session
// loses nothing. The session is then abandoned mid-search.
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

			post := func(h http.HandlerFunc, path string, req any) roundResponse {
				t.Helper()
				body, _ := json.Marshal(req)
				rec := httptest.NewRecorder()
				h(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
				}
				var rr roundResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
					t.Fatal(err)
				}
				return rr
			}
			var reads, scored int64
			check := func(round int, rr roundResponse) {
				t.Helper()
				reads += rr.Stats.TIAReads
				scored += int64(rr.Stats.Scored)
				if got := be.fac.Ledger().Stats().Sub(built).LogicalReads; got != reads {
					t.Fatalf("round %d: factory saw %d page reads, the session's rounds report %d", round, got, reads)
				}
				// The coordinator supplies gmax, so the shard probes only
				// the entries it scores.
				if got := tia.ProbeCount(be.kind) - probes0; got != scored {
					t.Fatalf("round %d: probe counter gained %d, the session's rounds scored %d entries", round, got, scored)
				}
			}
			rr := post(srv.HandleQuery, "/v1/shard/query", queryRequest{
				X: q.X, Y: q.Y, K: q.K, Alpha: q.Alpha0,
				Start: q.Iq.Start, End: q.Iq.End, Gmax: 100, Batch: 1,
			})
			check(0, rr)
			rounds := 1
			for ; rounds < 6 && !rr.Done; rounds++ {
				rr = post(srv.HandleNext, "/v1/shard/next", nextRequest{Session: rr.Session, Batch: 1})
				check(rounds, rr)
			}
			if rounds < 3 {
				t.Fatalf("the session ended after %d rounds; the test needs one that spans several", rounds)
			}
			if reads == 0 {
				t.Fatal("the session read no TIA page")
			}
		})
	}
}
