package skyline

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/tia"
)

func TestDominates(t *testing.T) {
	a := Point{ID: 1, S0: 0.2, S1: 0.3}
	cases := []struct {
		b         Point
		dom, rdom bool
	}{
		{Point{ID: 2, S0: 0.3, S1: 0.4}, true, false},
		{Point{ID: 3, S0: 0.2, S1: 0.3}, false, false}, // equal: no strict edge
		{Point{ID: 4, S0: 0.2, S1: 0.4}, true, false},
		{Point{ID: 5, S0: 0.1, S1: 0.4}, false, false}, // incomparable
		{Point{ID: 6, S0: 0.1, S1: 0.2}, false, true},
	}
	for i, c := range cases {
		if got := a.Dominates(c.b); got != c.dom {
			t.Errorf("case %d: Dominates = %v, want %v", i, got, c.dom)
		}
		if got := a.DominatesReversed(c.b); got != c.rdom {
			t.Errorf("case %d: DominatesReversed = %v, want %v", i, got, c.rdom)
		}
	}
}

func bruteSkyline(pts []Point) []Point {
	var out []Point
	for _, p := range pts {
		dominated := false
		for _, q := range pts {
			if q.Dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

func sortPts(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].S0 != pts[j].S0 {
			return pts[i].S0 < pts[j].S0
		}
		return pts[i].ID < pts[j].ID
	})
}

func TestOfMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(100)
		pts := make([]Point, n)
		for i := range pts {
			// Coarse grid so duplicates and ties happen.
			pts[i] = Point{ID: int64(i), S0: float64(r.Intn(12)) / 12, S1: float64(r.Intn(12)) / 12}
		}
		got := Of(pts)
		want := bruteSkyline(pts)
		// Ties at identical coordinates may be represented by either point;
		// compare coordinate multisets instead of IDs.
		if len(got) > len(want) {
			t.Fatalf("trial %d: skyline %d larger than brute %d", trial, len(got), len(want))
		}
		// Every brute point must be dominated-or-equal w.r.t. the result.
		for _, w := range want {
			ok := false
			for _, g := range got {
				if g.S0 == w.S0 && g.S1 == w.S1 {
					ok = true
					break
				}
				if g.Dominates(w) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: brute point %+v unaccounted", trial, w)
			}
		}
		// No result point may be dominated by any input point.
		for _, g := range got {
			for _, p := range pts {
				if p.Dominates(g) {
					t.Fatalf("trial %d: skyline point %+v dominated by %+v", trial, g, p)
				}
			}
		}
	}
}

func buildTree(t testing.TB, n int, seed int64) (*core.Tree, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr, err := core.NewTree(core.Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		Grouping:    core.TAR3D,
		EpochStart:  0,
		EpochLength: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		var hist []tia.Record
		// Heavy-tailed per-POI intensity, like the paper's LBSN data: most
		// POIs have tiny aggregates, a few have huge ones. Entry aggregate
		// bounds stay tight under such data, which is what gives the
		// TAR-tree (and BBS over it) its pruning power.
		scale := math.Pow(r.Float64(), -1.1)
		for ep := int64(0); ep < 15; ep++ {
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

// TestBBSMatchesBruteForce: the BBS skyline over the TAR-tree equals the
// in-memory skyline over all POI score points, with and without exclusion.
func TestBBSMatchesBruteForce(t *testing.T) {
	tr, r := buildTree(t, 400, 9)
	for trial := 0; trial < 10; trial++ {
		q := core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: 0, End: 150},
			K:      5,
			Alpha0: 0.2 + 0.6*r.Float64(),
		}
		// All POI score points via the exact scorer.
		var pts []Point
		tr.POIs(func(p core.POI, total int64) bool {
			res, err := tr.ScorePOI(q, p.ID)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, Point{ID: p.ID, S0: res.S0, S1: res.S1})
			return true
		})
		exclude := map[int64]bool{}
		if trial%2 == 1 {
			// Exclude the top-k POIs, as the MWA does.
			res, _, err := tr.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rr := range res {
				exclude[rr.POI.ID] = true
			}
		}
		var included []Point
		for _, p := range pts {
			if !exclude[p.ID] {
				included = append(included, p)
			}
		}
		want := bruteSkyline(included)
		var stats core.QueryStats
		s, err := tr.NewSearch(q, &stats, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BBS(s, exclude)
		if err != nil {
			t.Fatal(err)
		}
		sortPts(got)
		sortPts(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: BBS %d points, brute %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].S0-want[i].S0) > 1e-12 || math.Abs(got[i].S1-want[i].S1) > 1e-12 {
				t.Fatalf("trial %d pos %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// BBS must access fewer nodes than exhausting the whole tree.
func TestBBSPrunes(t *testing.T) {
	tr, _ := buildTree(t, 3000, 13)
	q := core.Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 150}, K: 5, Alpha0: 0.3}
	var bbsStats core.QueryStats
	s, err := tr.NewSearch(q, &bbsStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BBS(s, nil); err != nil {
		t.Fatal(err)
	}
	leaves, internals := tr.NodeCount()
	if bbsStats.RTreeAccesses() >= leaves+internals {
		t.Errorf("BBS accessed %d nodes of %d total: no pruning", bbsStats.RTreeAccesses(), leaves+internals)
	}
}
