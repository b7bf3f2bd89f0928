package mwa

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/skyline"
	"tartree/internal/tia"
)

// TestPaperTable3Example reproduces the worked example of Section 7.1:
// with the ranking list of Table 3, α0 = α1 = 0.5 and k = 2, the MWA is
// α0 < 1/3 or α0 > 20/29.
func TestPaperTable3Example(t *testing.T) {
	topk := []skyline.Point{
		{ID: 1, S0: 0.25, S1: 0.10}, // p1
		{ID: 2, S0: 0.10, S1: 0.30}, // p2
	}
	lower := []skyline.Point{
		{ID: 3, S0: 0.20, S1: 0.35},  // p3
		{ID: 4, S0: 0.35, S1: 0.25},  // p4
		{ID: 5, S0: 0.025, S1: 0.60}, // p5
		{ID: 6, S0: 0.60, S1: 0.05},  // p6
	}
	adj := FromPoints(topk, lower)
	if !adj.HasLower || math.Abs(adj.Lower-1.0/3) > 1e-12 {
		t.Errorf("Γl = %v (%v), want 1/3", adj.Lower, adj.HasLower)
	}
	if !adj.HasUpper || math.Abs(adj.Upper-20.0/29) > 1e-12 {
		t.Errorf("Γu = %v (%v), want 20/29", adj.Upper, adj.HasUpper)
	}
	// Individual boundaries quoted in the paper:
	// f'(p1) > f'(p3) needs α0 > 5/6.
	if g, ok, upper := Gamma(0.25-0.20, 0.10-0.35); !ok || !upper || math.Abs(g-5.0/6) > 1e-12 {
		t.Errorf("γ(p1,p3) = %v %v %v, want 5/6 upper", g, ok, upper)
	}
	// f'(p1) > f'(p6) needs α0 < 1/8.
	if g, ok, upper := Gamma(0.25-0.60, 0.10-0.05); !ok || upper || math.Abs(g-1.0/8) > 1e-12 {
		t.Errorf("γ(p1,p6) = %v %v %v, want 1/8 lower", g, ok, upper)
	}
	// f'(p2) > f'(p4) needs α0 < 1/6; f'(p2) > f'(p5) needs α0 > 4/5;
	// f'(p2) > f'(p6) needs α0 < 1/3.
	if g, _, _ := Gamma(0.10-0.35, 0.30-0.25); math.Abs(g-1.0/6) > 1e-12 {
		t.Errorf("γ(p2,p4) = %v, want 1/6", g)
	}
	if g, _, _ := Gamma(0.10-0.025, 0.30-0.60); math.Abs(g-4.0/5) > 1e-12 {
		t.Errorf("γ(p2,p5) = %v, want 4/5", g)
	}
	if g, _, _ := Gamma(0.10-0.60, 0.30-0.05); math.Abs(g-1.0/3) > 1e-12 {
		t.Errorf("γ(p2,p6) = %v, want 1/3", g)
	}
}

func TestGammaDominance(t *testing.T) {
	// Same signs: one POI dominates the other; no boundary.
	if _, ok, _ := Gamma(0.1, 0.2); ok {
		t.Error("dominating pair produced a boundary")
	}
	if _, ok, _ := Gamma(-0.1, -0.2); ok {
		t.Error("dominated pair produced a boundary")
	}
	if _, ok, _ := Gamma(0, 0.5); ok {
		t.Error("zero delta produced a boundary")
	}
}

func TestSkylineHelpers(t *testing.T) {
	pts := []skyline.Point{
		{ID: 1, S0: 0.1, S1: 0.9},
		{ID: 2, S0: 0.5, S1: 0.5},
		{ID: 3, S0: 0.9, S1: 0.1},
		{ID: 4, S0: 0.6, S1: 0.6}, // dominated by 2
	}
	min := skyline.Of(pts)
	if len(min) != 3 {
		t.Errorf("min skyline = %v", min)
	}
	for _, p := range min {
		if p.ID == 4 {
			t.Error("dominated point on skyline")
		}
	}
	max := skyline.OfReversed(pts)
	ids := map[int64]bool{}
	for _, p := range max {
		ids[p.ID] = true
	}
	// Under reversed dominance, 4 dominates 2.
	if ids[2] || !ids[4] || !ids[1] || !ids[3] {
		t.Errorf("reversed skyline = %v", max)
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
		for ep := int64(0); ep < 20; ep++ {
			if r.Intn(3) == 0 {
				agg := int64(1 + int(math.Pow(r.Float64(), -0.8)))
				if agg > 200 {
					agg = 200
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

// bruteForceMWA ranks all POIs directly and computes the MWA by checking
// every (top-k, lower) pair.
func bruteForceMWA(t *testing.T, tr *core.Tree, q core.Query) ([]core.Result, Adjustment) {
	t.Helper()
	var all []core.Result
	tr.POIs(func(p core.POI, total int64) bool {
		r, err := tr.ScorePOI(q, p.ID)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, r)
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score < all[j].Score
		}
		return all[i].POI.ID < all[j].POI.ID
	})
	k := q.K
	if k > len(all) {
		k = len(all)
	}
	topk := all[:k]
	var tops, lows []skyline.Point
	for _, r := range topk {
		tops = append(tops, skyline.Point{ID: r.POI.ID, S0: r.S0, S1: r.S1})
	}
	for _, r := range all[k:] {
		lows = append(lows, skyline.Point{ID: r.POI.ID, S0: r.S0, S1: r.S1})
	}
	return topk, FromPoints(tops, lows)
}

// TestAlgorithmsAgree: Enumerating, Pruning and brute force compute the
// same MWA for random trees and queries.
func TestAlgorithmsAgree(t *testing.T) {
	tr, r := buildTree(t, 500, 21)
	for trial := 0; trial < 20; trial++ {
		q := core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(100 + r.Intn(100))},
			K:      1 + r.Intn(10),
			Alpha0: 0.1 + 0.8*r.Float64(),
		}
		wantTop, wantAdj := bruteForceMWA(t, tr, q)
		topE, adjE, _, err := Enumerating(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		topP, adjP, _, err := Pruning(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(topE) != len(wantTop) || len(topP) != len(wantTop) {
			t.Fatalf("trial %d: top-k sizes differ", trial)
		}
		for i := range wantTop {
			if math.Abs(topE[i].Score-wantTop[i].Score) > 1e-9 ||
				math.Abs(topP[i].Score-wantTop[i].Score) > 1e-9 {
				t.Fatalf("trial %d: top-k scores differ at %d", trial, i)
			}
		}
		for name, adj := range map[string]Adjustment{"enumerating": adjE, "pruning": adjP} {
			if adj.HasLower != wantAdj.HasLower || adj.HasUpper != wantAdj.HasUpper {
				t.Fatalf("trial %d %s: presence %+v, want %+v (q=%+v)", trial, name, adj, wantAdj, q)
			}
			if adj.HasLower && math.Abs(adj.Lower-wantAdj.Lower) > 1e-9 {
				t.Fatalf("trial %d %s: Γl = %v, want %v", trial, name, adj.Lower, wantAdj.Lower)
			}
			if adj.HasUpper && math.Abs(adj.Upper-wantAdj.Upper) > 1e-9 {
				t.Fatalf("trial %d %s: Γu = %v, want %v", trial, name, adj.Upper, wantAdj.Upper)
			}
		}
	}
}

// TestAdjustmentChangesTopK verifies the semantic promise of the MWA: at a
// weight just past the boundary, the top-k set changes; just inside it, the
// set is unchanged.
func TestAdjustmentChangesTopK(t *testing.T) {
	tr, r := buildTree(t, 400, 33)
	checked := 0
	for trial := 0; trial < 30 && checked < 10; trial++ {
		q := core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: 0, End: 200},
			K:      5,
			Alpha0: 0.2 + 0.6*r.Float64(),
		}
		top, adj, _, err := Pruning(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		ids := func(rs []core.Result) map[int64]bool {
			m := map[int64]bool{}
			for _, r := range rs {
				m[r.POI.ID] = true
			}
			return m
		}
		setEq := func(a, b map[int64]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		}
		base := ids(top)
		const eps = 1e-6
		if adj.HasUpper && adj.Upper+eps < 1 {
			checked++
			q2 := q
			q2.Alpha0 = adj.Upper + eps
			after, _, err := tr.QueryCtx(context.Background(), q2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if setEq(base, ids(after)) {
				t.Errorf("top-k unchanged past Γu=%v (α0=%v)", adj.Upper, q.Alpha0)
			}
			// Just inside the boundary, the set must be unchanged.
			q3 := q
			q3.Alpha0 = adj.Upper - eps
			same, _, err := tr.QueryCtx(context.Background(), q3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !setEq(base, ids(same)) {
				t.Errorf("top-k changed before Γu=%v (α0=%v)", adj.Upper, q.Alpha0)
			}
		}
		if adj.HasLower && adj.Lower-eps > 0 {
			checked++
			q2 := q
			q2.Alpha0 = adj.Lower - eps
			after, _, err := tr.QueryCtx(context.Background(), q2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if setEq(base, ids(after)) {
				t.Errorf("top-k unchanged past Γl=%v (α0=%v)", adj.Lower, q.Alpha0)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no boundaries exercised")
	}
}

// TestPruningCheaper asserts the paper's performance claim: the pruning
// algorithm accesses far fewer nodes than enumerating.
func TestPruningCheaper(t *testing.T) {
	tr, r := buildTree(t, 2000, 55)
	var enumTotal, pruneTotal int64
	for trial := 0; trial < 10; trial++ {
		q := core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: 0, End: 200},
			K:      10,
			Alpha0: 0.3,
		}
		_, _, se, err := Enumerating(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		_, _, sp, err := Pruning(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		enumTotal += int64(se.RTreeAccesses())
		pruneTotal += int64(sp.RTreeAccesses())
	}
	t.Logf("node accesses: enumerating=%d pruning=%d", enumTotal, pruneTotal)
	if pruneTotal*2 >= enumTotal {
		t.Errorf("pruning (%d) should be far cheaper than enumerating (%d)", pruneTotal, enumTotal)
	}
}

func TestNoLowerRankedPOIs(t *testing.T) {
	tr, _ := buildTree(t, 5, 1)
	q := core.Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 200}, K: 10, Alpha0: 0.5}
	_, adj, _, err := Pruning(tr, q)
	if err != nil {
		t.Fatal(err)
	}
	if adj.HasLower || adj.HasUpper {
		t.Errorf("adjustment with no lower-ranked POIs: %+v", adj)
	}
}
