package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tartree/internal/geo"
	"tartree/internal/tia"
)

func world(x0, y0, x1, y1 float64) geo.Rect {
	return geo.Rect{Min: geo.Vector{x0, y0}, Max: geo.Vector{x1, y1}}
}

func mustTree(t testing.TB, opts Options) *Tree {
	t.Helper()
	tr, err := NewTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func defaultOpts(g Grouping) Options {
	return Options{
		World:       world(0, 0, 100, 100),
		Grouping:    g,
		EpochStart:  0,
		EpochLength: 10,
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewTree(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := NewTree(Options{World: world(0, 0, 1, 1)}); err == nil {
		t.Error("zero epoch length accepted")
	}
	if _, err := NewTree(Options{World: world(0, 0, 1, 1), EpochLength: 10, NodeSize: 64}); err == nil {
		t.Error("tiny node size accepted")
	}
}

func TestCapacityFor(t *testing.T) {
	// Section 8: 1024-byte nodes hold 50 two-dimensional and 36
	// three-dimensional entries.
	if got := CapacityFor(1024, 2); got != 50 {
		t.Errorf("2D capacity = %d, want 50", got)
	}
	if got := CapacityFor(1024, 3); got != 36 {
		t.Errorf("3D capacity = %d, want 36", got)
	}
}

func TestGroupingString(t *testing.T) {
	if TAR3D.String() != "TAR-tree" || IndSpa.String() != "IND-spa" || IndAgg.String() != "IND-agg" {
		t.Error("bad grouping names")
	}
	if TAR3D.Dims() != 3 || IndSpa.Dims() != 2 || IndAgg.Dims() != 2 {
		t.Error("bad grouping dims")
	}
}

func TestInsertAndLookup(t *testing.T) {
	tr := mustTree(t, defaultOpts(TAR3D))
	if err := tr.InsertPOI(POI{ID: 1, X: 10, Y: 20}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertPOI(POI{ID: 1, X: 30, Y: 40}, nil); err == nil {
		t.Error("duplicate POI accepted")
	}
	if err := tr.InsertPOI(POI{ID: 2, X: 200, Y: 0}, nil); err == nil {
		t.Error("out-of-world POI accepted")
	}
	// The world test alone passes NaN: every comparison with it is false.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, p := range []POI{{ID: 7, X: bad, Y: 20}, {ID: 7, X: 10, Y: bad}} {
			if err := tr.InsertPOI(p, []tia.Record{{Ts: 0, Te: 10, Agg: 3}}); err == nil || !strings.Contains(err.Error(), "POI 7") {
				t.Errorf("InsertPOI(%+v): err = %v, want a refusal naming POI 7", p, err)
			}
		}
	}
	p, ok := tr.Lookup(1)
	if !ok || p.X != 10 || p.Y != 20 {
		t.Errorf("lookup = %+v %v", p, ok)
	}
	if _, ok := tr.Lookup(99); ok {
		t.Error("phantom lookup")
	}
	q := Query{X: 10, Y: 20, Iq: tia.Interval{Start: 0, End: 10}, K: 1, Alpha0: 0.5}
	if _, err := tr.ScorePOI(q, 99); err == nil || err.Error() != "core: unknown POI 99" {
		t.Errorf("ScorePOI of an unknown POI: %v, want %q", err, "core: unknown POI 99")
	}
	if tr.Len() != 1 {
		t.Errorf("len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInFlow(t *testing.T) {
	tr := mustTree(t, defaultOpts(TAR3D))
	tr.InsertPOI(POI{ID: 1, X: 10, Y: 10}, nil)
	tr.InsertPOI(POI{ID: 2, X: 20, Y: 20}, nil)
	if err := tr.AddCheckIn(99, 5); err == nil {
		t.Error("check-in for unknown POI accepted")
	}
	if err := tr.AddCheckIn(1, -5); err == nil {
		t.Error("check-in before epoch start accepted")
	}
	// Epoch 0 = [0,10): POI 1 gets 3 check-ins, POI 2 gets 1.
	for i := 0; i < 3; i++ {
		if err := tr.AddCheckIn(1, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.AddCheckIn(2, 7)
	if tr.PendingCheckIns() != 4 {
		t.Errorf("pending = %d", tr.PendingCheckIns())
	}
	// Flushing before the epoch ends does nothing.
	if err := tr.FlushEpochs(9); err != nil {
		t.Fatal(err)
	}
	if tr.PendingCheckIns() != 4 {
		t.Error("epoch flushed early")
	}
	if err := tr.FlushEpochs(10); err != nil {
		t.Fatal(err)
	}
	if tr.PendingCheckIns() != 0 {
		t.Error("flush left check-ins pending")
	}
	got, err := tr.Aggregate(1, tia.Interval{Start: 0, End: 10})
	if err != nil || got != 3 {
		t.Errorf("aggregate = %d %v, want 3", got, err)
	}
	if got, _ := tr.Aggregate(2, tia.Interval{Start: 0, End: 10}); got != 1 {
		t.Errorf("poi 2 aggregate = %d", got)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPaperWorkedExample reproduces the running example of Sections 3.2 and
// 4.1 (Figure 1, Table 1): 12 POIs a..l, three epochs, a query with α0=0.3
// over [t0, tc]. The paper reports f(e) = 0.626, f(f) = 0.058 and the top-1
// result f, using max distance 15.6 (the diagonal of an 11×11 space) with
// d(e,q) = 2.24 and d(f,q) = 3.
func TestPaperWorkedExample(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr := mustTree(t, Options{
				World:       world(0, 0, 11, 11),
				Grouping:    g,
				EpochStart:  0,
				EpochLength: 1,
			})
			// Aggregates per Table 1 for epochs [t0,t1), [t1,t2), [t2,tc].
			aggs := map[string][3]int64{
				"a": {1, 1, 0}, "b": {1, 0, 1}, "c": {2, 2, 2}, "d": {2, 0, 0},
				"e": {1, 1, 0}, "f": {3, 5, 4}, "g": {2, 3, 1}, "h": {1, 1, 0},
				"i": {2, 2, 2}, "j": {2, 0, 0}, "k": {1, 0, 1}, "l": {1, 0, 1},
			}
			// Positions approximating Figure 1; only e and f distances are
			// asserted (√5 ≈ 2.24 and 3).
			pos := map[string][2]float64{
				"a": {2, 9}, "b": {4, 10}, "c": {6, 9}, "d": {1, 7},
				"e": {6, 7}, "f": {8, 5}, "g": {9, 6}, "h": {1, 4},
				"i": {9, 3}, "j": {2, 1}, "k": {4, 2}, "l": {1, 1},
			}
			q := Query{X: 5, Y: 5, Iq: tia.Interval{Start: 0, End: 3}, K: 1, Alpha0: 0.3}
			names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
			for i, name := range names {
				var hist []tia.Record
				for ep, a := range aggs[name] {
					if a > 0 {
						hist = append(hist, tia.Record{Ts: int64(ep), Te: int64(ep + 1), Agg: a})
					}
				}
				p := pos[name]
				if err := tr.InsertPOI(POI{ID: int64(i + 1), X: p[0], Y: p[1]}, hist); err != nil {
					t.Fatal(err)
				}
			}
			// d(e,q): e at (6,7), q at (5,5): √5 = 2.236 ≈ the paper's 2.24.
			eID := int64(5) // "e"
			re, err := tr.ScorePOI(q, eID)
			if err != nil {
				t.Fatal(err)
			}
			// f(e) = 0.3·2.236/15.556 + 0.7·(1 − 2/12) = 0.6264...
			if math.Abs(re.Score-0.626) > 0.002 {
				t.Errorf("f(e) = %.4f, want ≈0.626", re.Score)
			}
			if re.Agg != 2 {
				t.Errorf("agg(e) = %d, want 2", re.Agg)
			}
			fID := int64(6) // "f"
			rf, err := tr.ScorePOI(q, fID)
			if err != nil {
				t.Fatal(err)
			}
			// f(f) = 0.3·3/15.556 + 0.7·(1 − 12/12) = 0.0579...
			if math.Abs(rf.Score-0.058) > 0.002 {
				t.Errorf("f(f) = %.4f, want ≈0.058", rf.Score)
			}
			if rf.Agg != 12 {
				t.Errorf("agg(f) = %d, want 12", rf.Agg)
			}
			// The top-1 kNNTA result is f.
			res, stats, err := tr.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].POI.ID != fID {
				t.Fatalf("top-1 = %+v, want POI f", res)
			}
			if math.Abs(res[0].Score-rf.Score) > 1e-9 {
				t.Errorf("BFS score %.6f != direct score %.6f", res[0].Score, rf.Score)
			}
			if stats.RTreeAccesses() == 0 {
				t.Error("no node accesses counted")
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// buildRandomTree populates a tree with n POIs whose check-in histories
// follow a rough power law, and returns the expected epoch count.
func buildRandomTree(t testing.TB, g Grouping, n int, seed int64) (*Tree, *rand.Rand) {
	t.Helper()
	return buildRandomTreeOpts(t, defaultOpts(g), n, seed)
}

func buildRandomTreeOpts(t testing.TB, opts Options, n int, seed int64) (*Tree, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr := mustTree(t, opts)
	const epochs = 20
	for i := 0; i < n; i++ {
		var hist []tia.Record
		// Heavy-tailed total: most POIs small, a few large.
		total := int64(1 + int(math.Pow(r.Float64(), -1.2)))
		if total > 500 {
			total = 500
		}
		for total > 0 {
			ep := int64(r.Intn(epochs))
			c := 1 + r.Int63n(total)
			found := false
			for j := range hist {
				if hist[j].Ts == ep*10 {
					hist[j].Agg += c
					found = true
					break
				}
			}
			if !found {
				hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: c})
			}
			total -= c
		}
		if err := tr.InsertPOI(POI{ID: int64(i + 1), X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
			t.Fatal(err)
		}
	}
	return tr, r
}

// bruteForceQuery ranks every POI with ScorePOI and returns the top k.
func bruteForceQuery(t testing.TB, tr *Tree, q Query) []Result {
	t.Helper()
	var all []Result
	for id := range tr.pois {
		res, err := tr.ScorePOI(q, id)
		if err != nil {
			t.Fatalf("score %d: %v", id, err)
		}
		all = append(all, res)
	}
	slices.SortFunc(all, CompareResults)
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

// TestBFSEqualsBruteForce is the central correctness property: for every
// grouping strategy and random queries, best-first search over the TAR-tree
// returns exactly the brute-force top-k: the same POIs in the same order,
// ties included, with the same score bits and aggregates.
func TestBFSEqualsBruteForce(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr, r := buildRandomTree(t, g, 600, 42+int64(g))
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				start := int64(r.Intn(150))
				q := Query{
					X:      r.Float64() * 100,
					Y:      r.Float64() * 100,
					Iq:     tia.Interval{Start: start, End: start + int64(1+r.Intn(200))},
					K:      1 + r.Intn(20),
					Alpha0: 0.05 + 0.9*r.Float64(),
				}
				got, _, err := tr.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstScan(t, tr, q, got)
			}
		})
	}
}

// TestCheckInsThenQuery verifies that live ingestion (AddCheckIn + flush)
// produces the same query results as loading the equivalent history.
func TestCheckInsThenQuery(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	live := mustTree(t, defaultOpts(TAR3D))
	hist := mustTree(t, defaultOpts(TAR3D))
	const n = 150
	type ci struct {
		poi int64
		at  int64
	}
	var checkins []ci
	for i := 1; i <= n; i++ {
		x, y := r.Float64()*100, r.Float64()*100
		live.InsertPOI(POI{ID: int64(i), X: x, Y: y}, nil)
		cnt := r.Intn(30)
		hm := map[int64]int64{}
		for j := 0; j < cnt; j++ {
			at := int64(r.Intn(200))
			checkins = append(checkins, ci{int64(i), at})
			hm[at/10]++
		}
		var hrecs []tia.Record
		for ep, c := range hm {
			hrecs = append(hrecs, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: c})
		}
		sort.Slice(hrecs, func(a, b int) bool { return hrecs[a].Ts < hrecs[b].Ts })
		hist.InsertPOI(POI{ID: int64(i), X: x, Y: y}, hrecs)
	}
	for _, c := range checkins {
		if err := live.AddCheckIn(c.poi, c.at); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := live.Check(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		q := Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(100 + r.Intn(150))},
			K:      5,
			Alpha0: 0.3,
		}
		a, _, err := live.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := hist.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("trial %d pos %d: %.9f vs %.9f", trial, i, a[i].Score, b[i].Score)
			}
		}
	}
}

func TestDeletePOI(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 300, 99)
	if ok, err := tr.DeletePOI(9999); err != nil || ok {
		t.Fatalf("delete missing = %v %v", ok, err)
	}
	for i := int64(1); i <= 150; i++ {
		ok, err := tr.DeletePOI(i)
		if err != nil || !ok {
			t.Fatalf("delete %d = %v %v", i, ok, err)
		}
	}
	if tr.Len() != 150 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Remaining POIs still queryable.
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 200}, K: 10, Alpha0: 0.5}
	res, _, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("results after delete = %d", len(res))
	}
	for _, r := range res {
		if r.POI.ID <= 150 {
			t.Fatalf("deleted POI %d returned", r.POI.ID)
		}
	}
}

func TestRebuild(t *testing.T) {
	tr, r := buildRandomTree(t, TAR3D, 400, 31)
	q := Query{X: r.Float64() * 100, Y: r.Float64() * 100,
		Iq: tia.Interval{Start: 0, End: 200}, K: 10, Alpha0: 0.3}
	before, _, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	after, _, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("result counts differ after rebuild")
	}
	for i := range before {
		if math.Abs(before[i].Score-after[i].Score) > 1e-9 {
			t.Fatalf("pos %d: %.9f vs %.9f", i, before[i].Score, after[i].Score)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	tr := mustTree(t, defaultOpts(TAR3D))
	tr.InsertPOI(POI{ID: 1, X: 1, Y: 1}, nil)
	bad := []Query{
		{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 10}, K: 0, Alpha0: 0.5},
		{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 10}, K: 5, Alpha0: 0},
		{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 10}, K: 5, Alpha0: 1},
		{X: 1, Y: 1, Iq: tia.Interval{Start: 10, End: 10}, K: 5, Alpha0: 0.5},
	}
	for i, q := range bad {
		if _, _, err := tr.QueryCtx(context.Background(), q, nil); err == nil {
			t.Errorf("query %d accepted: %+v", i, q)
		}
	}
}

func TestEmptyTreeQuery(t *testing.T) {
	tr := mustTree(t, defaultOpts(TAR3D))
	res, _, err := tr.QueryCtx(context.Background(), Query{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 10}, K: 3, Alpha0: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results from empty tree: %v", res)
	}
}

func TestKLargerThanN(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 10, 3)
	res, _, err := tr.QueryCtx(context.Background(), Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 200}, K: 50, Alpha0: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results, want all 10", len(res))
	}
	// Results in ascending score order.
	for i := 1; i < len(res); i++ {
		if res[i].Score < res[i-1].Score-1e-12 {
			t.Fatal("results out of order")
		}
	}
}

// TestNodeAccessComparison reproduces the paper's core claim in miniature:
// on power-law data the TAR-tree needs fewer node accesses than IND-spa and
// IND-agg for the same queries.
func TestNodeAccessComparison(t *testing.T) {
	accesses := map[Grouping]int64{}
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		tr, _ := buildRandomTree(t, g, 2000, 77)
		r := rand.New(rand.NewSource(123))
		var total int64
		for trial := 0; trial < 50; trial++ {
			q := Query{
				X: r.Float64() * 100, Y: r.Float64() * 100,
				Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(120 + r.Intn(80))},
				K:      10,
				Alpha0: 0.3,
			}
			_, stats, err := tr.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += int64(stats.RTreeAccesses())
		}
		accesses[g] = total
	}
	t.Logf("node accesses: TAR=%d IND-spa=%d IND-agg=%d",
		accesses[TAR3D], accesses[IndSpa], accesses[IndAgg])
	if accesses[TAR3D] >= accesses[IndSpa] {
		t.Errorf("TAR-tree (%d) not better than IND-spa (%d)", accesses[TAR3D], accesses[IndSpa])
	}
	if accesses[TAR3D] >= accesses[IndAgg] {
		t.Errorf("TAR-tree (%d) not better than IND-agg (%d)", accesses[TAR3D], accesses[IndAgg])
	}
}

func TestQueryStatsCounted(t *testing.T) {
	opts := defaultOpts(TAR3D)
	opts.TIA = tia.NewBTreeFactory(1024, 10) // TIA page accesses are asserted
	tr, _ := buildRandomTreeOpts(t, opts, 500, 5)
	_, stats, err := tr.QueryCtx(context.Background(), Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 200}, K: 10, Alpha0: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RTreeAccesses() == 0 || stats.Scored == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.TIAAccesses == 0 {
		t.Errorf("no TIA accesses counted: %+v", stats)
	}
	if stats.NodeAccesses() != int64(stats.RTreeAccesses())+stats.TIAAccesses {
		t.Error("NodeAccesses arithmetic wrong")
	}
}

func TestMVBTBackedTree(t *testing.T) {
	opts := defaultOpts(TAR3D)
	opts.TIA = tia.NewMVBTFactory(1024, 10)
	tr := mustTree(t, opts)
	r := rand.New(rand.NewSource(15))
	for i := 1; i <= 200; i++ {
		var hist []tia.Record
		for ep := int64(0); ep < 10; ep++ {
			if r.Intn(2) == 0 {
				hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: r.Int63n(20) + 1})
			}
		}
		if err := tr.InsertPOI(POI{ID: int64(i), X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 100}, K: 5, Alpha0: 0.3}
	got, stats, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceQuery(t, tr, q)
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("pos %d: %.9f vs %.9f", i, got[i].Score, want[i].Score)
		}
	}
	if stats.TIAAccesses == 0 {
		t.Error("MVBT TIA accesses not counted")
	}
}

func TestIntersectingSemantics(t *testing.T) {
	opts := defaultOpts(TAR3D)
	opts.Semantics = tia.Intersecting
	tr := mustTree(t, opts)
	tr.InsertPOI(POI{ID: 1, X: 10, Y: 10}, []tia.Record{{Ts: 0, Te: 10, Agg: 5}})
	tr.InsertPOI(POI{ID: 2, X: 90, Y: 90}, []tia.Record{{Ts: 10, Te: 20, Agg: 5}})
	// Interval [5, 8) intersects only POI 1's epoch; under Contained it
	// would match nothing.
	got, err := tr.Aggregate(1, tia.Interval{Start: 5, End: 8})
	if err != nil || got != 5 {
		t.Fatalf("intersecting aggregate = %d %v", got, err)
	}
	res, _, err := tr.QueryCtx(context.Background(), Query{X: 50, Y: 50, Iq: tia.Interval{Start: 5, End: 8}, K: 1, Alpha0: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].POI.ID != 1 {
		t.Fatalf("top-1 = %+v, want POI 1", res)
	}
}

func BenchmarkQueryTAR(b *testing.B) {
	tr, _ := buildRandomTree(b, TAR3D, 5000, 1)
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq: tia.Interval{Start: 0, End: 200}, K: 10, Alpha0: 0.3}
		if _, _, err := tr.QueryCtx(context.Background(), q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRebuildBulk(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr, r := buildRandomTree(t, g, 400, 61)
			q := Query{X: r.Float64() * 100, Y: r.Float64() * 100,
				Iq: tia.Interval{Start: 0, End: 200}, K: 10, Alpha0: 0.3}
			before, _, err := tr.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.RebuildBulk(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
			after, _, err := tr.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(before) != len(after) {
				t.Fatal("result counts differ after bulk rebuild")
			}
			for i := range before {
				if math.Abs(before[i].Score-after[i].Score) > 1e-9 {
					t.Fatalf("pos %d: %.9f vs %.9f", i, before[i].Score, after[i].Score)
				}
			}
			// Mutations after a bulk rebuild keep working.
			if err := tr.InsertPOI(POI{ID: 9001, X: 1, Y: 1}, nil); err != nil {
				t.Fatal(err)
			}
			if err := tr.AddCheckIn(9001, 5); err != nil {
				t.Fatal(err)
			}
			if err := tr.FlushEpochs(10); err != nil {
				t.Fatal(err)
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMaxAggregateFunc runs the kNNTA query with the max aggregate (the
// busiest single epoch in the interval) and verifies BFS against brute
// force — Property 1 holds for max because internal TIAs store per-epoch
// maxima over supersets of their children's epochs.
func TestMaxAggregateFunc(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	opts := defaultOpts(TAR3D)
	opts.AggFunc = tia.FuncMax
	tr := mustTree(t, opts)
	for i := 1; i <= 300; i++ {
		var hist []tia.Record
		for ep := int64(0); ep < 20; ep++ {
			if r.Intn(3) == 0 {
				hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: int64(1 + r.Intn(40))})
			}
		}
		if err := tr.InsertPOI(POI{ID: int64(i), X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
			t.Fatal(err)
		}
	}
	// The aggregate of a POI is now the max epoch value in the interval.
	got, err := tr.AggregateMirror(1, tia.Interval{Start: 0, End: 200})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	st := tr.pois[1]
	for _, rec := range st.data.Records() {
		if rec.Agg > want {
			want = rec.Agg
		}
	}
	if got != want {
		t.Fatalf("max aggregate = %d, want %d", got, want)
	}
	for trial := 0; trial < 15; trial++ {
		q := Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(110 + r.Intn(90))},
			K:      1 + r.Intn(10),
			Alpha0: 0.1 + 0.8*r.Float64(),
		}
		res, _, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRes := bruteForceQuery(t, tr, q)
		if len(res) != len(wantRes) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(res), len(wantRes))
		}
		for i := range res {
			if math.Abs(res[i].Score-wantRes[i].Score) > 1e-9 {
				t.Fatalf("trial %d pos %d: %.9f vs %.9f", trial, i, res[i].Score, wantRes[i].Score)
			}
		}
	}
}
