package planner

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
	return buildTreeGrouping(t, n, seed, core.TAR3D)
}

// buildTreeGrouping is buildTree with the grouping as a parameter, so the
// crossover tests can pin the planner's decision for every tree layout.
func buildTreeGrouping(t testing.TB, n int, seed int64, g core.Grouping) (*core.Tree, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr, err := core.NewTree(core.Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		Grouping:    g,
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
				if agg > 300 {
					agg = 300
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

func TestPlanExtremes(t *testing.T) {
	tr, _ := buildTree(t, 2000, 9)
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	iv := tia.Interval{Start: 0, End: 200}
	// Small k: the index must win.
	small, err := p.Plan(core.Query{X: 50, Y: 50, Iq: iv, K: 5, Alpha0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if small.Engine != UseIndex {
		t.Errorf("k=5: engine = %v (index %.1f vs scan %.1f)", small.Engine, small.IndexCost, small.ScanCost)
	}
	// k covering nearly everything: the scan must win.
	big, err := p.Plan(core.Query{X: 50, Y: 50, Iq: iv, K: 1900, Alpha0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if big.Engine != UseScan {
		t.Errorf("k=1900: engine = %v (index %.1f vs scan %.1f)", big.Engine, big.IndexCost, big.ScanCost)
	}
	if big.EstimatedFk <= small.EstimatedFk {
		t.Errorf("estimated f(pk) should grow with k: %v vs %v", small.EstimatedFk, big.EstimatedFk)
	}
}

// Both engines must return identical results — the planner never changes
// answers, only costs.
func TestPlannerResultsMatch(t *testing.T) {
	tr, r := buildTree(t, 600, 4)
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(120 + r.Intn(80))},
			K:      1 + r.Intn(50),
			Alpha0: 0.1 + 0.8*r.Float64(),
		}
		res, _, _, err := p.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(res), len(want))
		}
		for i := range res {
			if math.Abs(res[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("trial %d pos %d: %.9f vs %.9f", trial, i, res[i].Score, want[i].Score)
			}
		}
	}
}

func TestCalibration(t *testing.T) {
	tr, r := buildTree(t, 800, 14)
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	var sample []core.Query
	for i := 0; i < 8; i++ {
		sample = append(sample, core.Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: 0, End: 200},
			K:      10,
			Alpha0: 0.3,
		})
	}
	if err := p.Calibrate(sample); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(sample[0])
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexCost <= 0 || plan.ScanCost <= 0 {
		t.Errorf("calibrated costs = %+v", plan)
	}
	if err := p.Calibrate(nil); err == nil {
		t.Error("empty calibration accepted")
	}
}

func TestClassStatsCached(t *testing.T) {
	tr, _ := buildTree(t, 400, 5)
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	iv := tia.Interval{Start: 0, End: 100}
	if _, err := p.Plan(core.Query{X: 1, Y: 1, Iq: iv, K: 5, Alpha0: 0.5}); err != nil {
		t.Fatal(err)
	}
	if len(p.classes) != 1 {
		t.Fatalf("classes = %d", len(p.classes))
	}
	// Same length, different position: reuses the class.
	iv2 := tia.Interval{Start: 50, End: 150}
	if _, err := p.Plan(core.Query{X: 1, Y: 1, Iq: iv2, K: 5, Alpha0: 0.5}); err != nil {
		t.Fatal(err)
	}
	if len(p.classes) != 1 {
		t.Fatalf("classes after same-length query = %d", len(p.classes))
	}
	// New length: new class.
	iv3 := tia.Interval{Start: 0, End: 30}
	if _, err := p.Plan(core.Query{X: 1, Y: 1, Iq: iv3, K: 5, Alpha0: 0.5}); err != nil {
		t.Fatal(err)
	}
	if len(p.classes) != 2 {
		t.Fatalf("classes after new length = %d", len(p.classes))
	}
}

func TestPlannerEmptyTree(t *testing.T) {
	tr, err := core.NewTree(core.Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{10, 10}},
		EpochLength: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(core.Query{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 10}, K: 1, Alpha0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Engine != UseScan {
		t.Error("empty tree should trivially scan")
	}
	res, _, _, err := p.Query(core.Query{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 10}, K: 1, Alpha0: 0.5})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty query = %v %v", res, err)
	}
}

func TestEngineString(t *testing.T) {
	if UseIndex.String() != "tar-tree" || UseScan.String() != "sequential-scan" {
		t.Error("bad engine names")
	}
}
