package batch

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/tia"
)

func buildTree(t testing.TB, n int, seed int64) (*core.Tree, *rand.Rand) {
	t.Helper()
	return buildTreeOn(t, nil, n, seed)
}

// buildTreeOn is buildTree with the TIA factory named (nil: the default).
func buildTreeOn(t testing.TB, factory tia.Factory, n int, seed int64) (*core.Tree, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr, err := core.NewTree(core.Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		Grouping:    core.TAR3D,
		TIA:         factory,
		EpochStart:  0,
		EpochLength: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		var hist []tia.Record
		scale := math.Pow(r.Float64(), -1.1)
		for ep := int64(0); ep < 20; ep++ {
			if r.Intn(3) == 0 {
				agg := int64(1 + scale*r.Float64())
				if agg > 500 {
					agg = 500
				}
				hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: agg})
			}
		}
		if err := tr.InsertPOI(core.POI{ID: int64(i), X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
			t.Fatal(err)
		}
	}
	return tr, r
}

func randomQueries(r *rand.Rand, n, types int) []core.Query {
	// types distinct intervals, as in the paper's Figure 16 setup.
	ivs := make([]tia.Interval, types)
	for i := range ivs {
		start := int64(r.Intn(100))
		ivs[i] = tia.Interval{Start: start, End: start + int64(1+r.Intn(100))}
	}
	qs := make([]core.Query, n)
	for i := range qs {
		qs[i] = core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     ivs[r.Intn(types)],
			K:      10,
			Alpha0: 0.3,
		}
	}
	return qs
}

// TestCollectiveEqualsIndividual: both processing modes return identical
// ranked lists: the same POIs in the same order, with the same score bits.
func TestCollectiveEqualsIndividual(t *testing.T) {
	tr, r := buildTree(t, 800, 3)
	queries := randomQueries(r, 50, 5)
	coll, _, err := Process(tr, queries)
	if err != nil {
		t.Fatal(err)
	}
	ind, _, err := ProcessIndividually(tr, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(coll) != len(ind) {
		t.Fatalf("result counts differ")
	}
	for i := range coll {
		a, b := coll[i].Results, ind[i].Results
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", i, len(a), len(b))
		}
		for j := range a {
			if a[j].POI.ID != b[j].POI.ID || math.Float64bits(a[j].Score) != math.Float64bits(b[j].Score) {
				t.Fatalf("query %d pos %d: POI %d score %v vs POI %d score %v",
					i, j, a[j].POI.ID, a[j].Score, b[j].POI.ID, b[j].Score)
			}
		}
	}
}

// TestCollectiveSharesAccesses: the collective scheme needs fewer R-tree
// node accesses than individual processing, and the advantage grows with
// the batch size (Figure 15's trend). The collective totals are pinned: the
// scheme detects a shared front entry by comparing child node ids across the
// searches' queues, and a change there must not silently lose sharing.
func TestCollectiveSharesAccesses(t *testing.T) {
	tr, r := buildTreeOn(t, tia.NewBTreeFactory(1024, 10), 1500, 7) // TIA page accesses are pinned
	prevPerQuery := math.Inf(1)
	pinned := map[int][4]int64{ // internal, leaf, TIA accesses, scored
		20:  {6, 56, 1704, 1701},
		100: {6, 138, 3796, 3793},
		400: {7, 217, 4466, 4463},
	}
	for _, n := range []int{20, 100, 400} {
		queries := randomQueries(r, n, 3)
		_, cs, err := Process(tr, queries)
		if err != nil {
			t.Fatal(err)
		}
		if got := [4]int64{int64(cs.InternalAccesses), int64(cs.LeafAccesses), cs.TIAAccesses, int64(cs.Scored)}; got != pinned[n] {
			t.Errorf("n=%d: collective totals %v, pinned %v", n, got, pinned[n])
		}
		_, is, err := ProcessIndividually(tr, queries)
		if err != nil {
			t.Fatal(err)
		}
		cPer := float64(cs.RTreeAccesses()) / float64(n)
		iPer := float64(is.RTreeAccesses()) / float64(n)
		t.Logf("n=%d: collective %.1f accesses/query, individual %.1f", n, cPer, iPer)
		if cPer >= iPer {
			t.Errorf("n=%d: collective (%v) not cheaper than individual (%v)", n, cPer, iPer)
		}
		if cPer >= prevPerQuery*1.05 {
			t.Errorf("n=%d: per-query accesses did not shrink with batch size (%v -> %v)", n, prevPerQuery, cPer)
		}
		prevPerQuery = cPer
	}
}

// TestMoreTypesLessSharing: with more distinct query intervals, TIA sharing
// declines (Figure 16's trend).
func TestMoreTypesLessSharing(t *testing.T) {
	tr, r := buildTree(t, 1000, 11)
	var prev int64 = -1
	for _, types := range []int{1, 10, 50} {
		queries := randomQueries(r, 100, types)
		_, cs, err := Process(tr, queries)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("types=%d: TIA accesses %d", types, cs.TIAAccesses)
		if prev >= 0 && cs.TIAAccesses < prev {
			// More types must not reduce TIA work (monotone trend, modulo
			// the random query points — allow a small slack).
			if float64(cs.TIAAccesses) < 0.8*float64(prev) {
				t.Errorf("types=%d: TIA accesses %d fell below previous %d", types, cs.TIAAccesses, prev)
			}
		}
		prev = cs.TIAAccesses
	}
}

func TestEmptyBatch(t *testing.T) {
	tr, _ := buildTree(t, 50, 1)
	out, stats, err := Process(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.RTreeAccesses() != 0 {
		t.Errorf("empty batch produced work: %+v", stats)
	}
}

func TestSingleQueryBatch(t *testing.T) {
	tr, r := buildTree(t, 300, 2)
	q := randomQueries(r, 1, 1)
	coll, _, err := Process(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := tr.QueryCtx(context.Background(), q[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(coll[0].Results) != len(direct) {
		t.Fatalf("single-query batch differs from direct query")
	}
	for i := range direct {
		if math.Abs(coll[0].Results[i].Score-direct[i].Score) > 1e-9 {
			t.Fatalf("pos %d differs", i)
		}
	}
}

func TestBatchInvalidQuery(t *testing.T) {
	tr, _ := buildTree(t, 50, 4)
	bad := []core.Query{{X: 1, Y: 1, Iq: tia.Interval{Start: 5, End: 5}, K: 1, Alpha0: 0.5}}
	if _, _, err := Process(tr, bad); err == nil {
		t.Error("invalid query accepted")
	}
	if _, _, err := ProcessIndividually(tr, bad); err == nil {
		t.Error("invalid query accepted individually")
	}
}
