package planner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"tartree/internal/core"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

// TestPlanCrossoverGroupings pins the tree-vs-scan decision boundary for
// every grouping: a selective query stays on the index, k approaching the
// data set size flips to the scan, and a degenerate cone (α0 → 0 with a
// large k, where the spatial term stops pruning) flips too. The exact
// crossover k differs per grouping (the fanout depends on the tree's
// dimensionality); the extremes must not.
func TestPlanCrossoverGroupings(t *testing.T) {
	const n = 2000
	iv := tia.Interval{Start: 0, End: 200}
	cases := []struct {
		name   string
		k      int
		alpha0 float64
		want   Engine
	}{
		{"selective", 5, 0.3, UseIndex},
		{"k_near_n", 1900, 0.3, UseScan},
		{"degenerate_cone", 500, 0.01, UseScan},
	}
	for _, g := range []core.Grouping{core.TAR3D, core.IndSpa, core.IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr, _ := buildTreeGrouping(t, n, 9, g)
			p, err := New(tr)
			if err != nil {
				t.Fatal(err)
			}
			var prevNA float64
			for _, tc := range cases {
				plan, err := p.Plan(core.Query{X: 50, Y: 50, Iq: iv, K: tc.k, Alpha0: tc.alpha0})
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if plan.Engine != tc.want {
					t.Errorf("%s (k=%d, α0=%.2f): engine = %v (index %.1f vs scan %.1f)",
						tc.name, tc.k, tc.alpha0, plan.Engine, plan.IndexCost, plan.ScanCost)
				}
				if plan.EstimatedNodeAccesses <= plan.EstimatedLeafAccesses {
					t.Errorf("%s: node estimate %.1f not above leaf estimate %.1f",
						tc.name, plan.EstimatedNodeAccesses, plan.EstimatedLeafAccesses)
				}
				if len(plan.Bands) == 0 {
					t.Errorf("%s: plan has no estimation bands", tc.name)
				}
				if plan.EstimatedNodeAccesses < prevNA {
					t.Errorf("%s: node-access estimate shrank (%.1f after %.1f) on a widening search",
						tc.name, plan.EstimatedNodeAccesses, prevNA)
				}
				prevNA = plan.EstimatedNodeAccesses
			}
		})
	}
}

// TestPlanErrorPaths pins Plan's failure modes: validation failures wrap
// core.ErrInvalid and an estimate-only planner refuses to calibrate.
func TestPlanErrorPaths(t *testing.T) {
	tr, _ := buildTree(t, 100, 3)
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := []core.Query{
		{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 100}, K: 0, Alpha0: 0.5},
		{X: 1, Y: 1, Iq: tia.Interval{Start: 100, End: 0}, K: 5, Alpha0: 0.5},
		{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 100}, K: 5, Alpha0: 1.5},
	}
	for i, q := range bad {
		if _, err := p.Plan(q); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("bad query %d: Plan error = %v, want ErrInvalid", i, err)
		}
		if _, _, _, err := p.Query(q); !errors.Is(err, core.ErrInvalid) {
			t.Errorf("bad query %d: Query error = %v, want ErrInvalid", i, err)
		}
	}
	est := NewEstimator(tr)
	if err := est.Calibrate([]core.Query{{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 100}, K: 5, Alpha0: 0.5}}); err == nil {
		t.Error("estimate-only planner accepted Calibrate")
	}
}

// TestEstimatorExecutesTree pins the advisory contract of NewEstimator:
// even when the plan says scan, the tree executes (there is no scan
// engine), the answer matches the tree's own, and the explain still
// carries the scan plan for forensics.
func TestEstimatorExecutesTree(t *testing.T) {
	tr, _ := buildTree(t, 500, 7)
	p := NewEstimator(tr)
	q := core.Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 200}, K: 480, Alpha0: 0.3}
	ex := core.NewExplain()
	res, plan, stats, err := p.QueryCtx(context.Background(), q, &core.QueryOpts{Explain: ex})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Engine != UseScan {
		t.Fatalf("k near n planned %v, want the scan (advisory)", plan.Engine)
	}
	if stats.RTreeAccesses() == 0 || ex.Pops == 0 {
		t.Fatal("estimator did not execute the tree")
	}
	want, _, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("estimator answer has %d results, tree has %d", len(res), len(want))
	}
	if ex.Plan == nil || ex.Plan.Engine != UseScan.String() {
		t.Fatalf("explain plan = %+v, want the advisory scan plan", ex.Plan)
	}
}

// TestQueryCtxScanExplain checks the scan-path explain: the recorder is
// finished with the outcome and carries the plan, but no tree forensics —
// the tree never ran.
func TestQueryCtxScanExplain(t *testing.T) {
	tr, _ := buildTree(t, 2000, 9)
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 200}, K: 1900, Alpha0: 0.3}
	ex := core.NewExplain()
	res, plan, _, err := p.QueryCtx(context.Background(), q, &core.QueryOpts{Explain: ex})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Engine != UseScan {
		t.Fatalf("engine = %v, want scan", plan.Engine)
	}
	if ex.Plan == nil || ex.Plan.Engine != "sequential-scan" {
		t.Fatalf("explain plan = %+v", ex.Plan)
	}
	if ex.Pops != 0 || ex.NodeAccesses() != 0 {
		t.Errorf("scan explain has tree forensics: pops=%d nodes=%d", ex.Pops, ex.NodeAccesses())
	}
	if ex.Results != len(res) {
		t.Errorf("scan explain Results = %d, want %d", ex.Results, len(res))
	}
	if len(res) > 0 && ex.ActualFk != res[len(res)-1].Score {
		t.Errorf("scan explain ActualFk = %v, want %v", ex.ActualFk, res[len(res)-1].Score)
	}
}

// TestObserveEstimateError is the metric fixture: hand-computed signed
// relative errors must land in the instrumented histograms exactly, and
// each observation must increment the right engine/verdict counter.
func TestObserveEstimateError(t *testing.T) {
	tr, _ := buildTree(t, 50, 1)
	p := NewEstimator(tr)
	reg := obs.NewRegistry()
	p.Instrument(reg)

	mkExplain := func(actualNA int64, actualFk float64) *core.Explain {
		ex := core.NewExplain()
		ex.NodeAccessesByLevel = []int64{actualNA - 5, 5}
		ex.ActualFk = actualFk
		return ex
	}

	// est 30 vs actual 20: signed error (30−20)/20 = +0.5, verdict ok
	// (the boundary is exclusive). est f(pk) 2 vs actual 4: (2−4)/4 = −0.5.
	p.Observe(Plan{Engine: UseIndex, EstimatedNodeAccesses: 30, EstimatedFk: 2}, mkExplain(20, 4))
	if got := p.metrics.accessErr.Sum(); got != 0.5 {
		t.Errorf("access error sum = %v, want +0.5", got)
	}
	if got := p.metrics.accessErr.Count(); got != 1 {
		t.Errorf("access error count = %d, want 1", got)
	}
	if got := p.metrics.fkErr.Sum(); got != -0.5 {
		t.Errorf("fk error sum = %v, want -0.5", got)
	}

	// est 35 vs actual 20: +0.75 → over. est 5 vs actual 20: −0.75 → under.
	p.Observe(Plan{Engine: UseIndex, EstimatedNodeAccesses: 35}, mkExplain(20, 0))
	p.Observe(Plan{Engine: UseIndex, EstimatedNodeAccesses: 5}, mkExplain(20, 0))
	if got := p.metrics.accessErr.Sum(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("access error sum after over+under = %v, want 0.5", got)
	}

	// Unmeasured paths: a scan plan, a missing recorder, a result-cache
	// hit, and a zero-actual explain must not feed the error histograms.
	p.Observe(Plan{Engine: UseScan, EstimatedNodeAccesses: 30}, mkExplain(20, 4))
	p.Observe(Plan{Engine: UseIndex, EstimatedNodeAccesses: 30}, nil)
	hit := core.NewExplain()
	hit.ResultCacheHit = true
	p.Observe(Plan{Engine: UseIndex, EstimatedNodeAccesses: 30}, hit)
	p.Observe(Plan{Engine: UseIndex, EstimatedNodeAccesses: 30}, core.NewExplain())
	if got := p.metrics.accessErr.Count(); got != 3 {
		t.Errorf("access error count after unmeasured paths = %d, want 3", got)
	}
	if got := p.metrics.fkErr.Count(); got != 1 {
		t.Errorf("fk error count = %d, want 1 (only the first had an actual f(pk))", got)
	}

	counter := func(engine Engine, verdict string) int64 {
		return reg.Counter(fmt.Sprintf(`tartree_planner_engine_total{engine=%q,verdict=%q}`,
			engine.String(), verdict)).Value()
	}
	if got := counter(UseIndex, VerdictOK); got != 1 {
		t.Errorf("ok verdicts = %d, want 1", got)
	}
	if got := counter(UseIndex, VerdictOver); got != 1 {
		t.Errorf("over verdicts = %d, want 1", got)
	}
	if got := counter(UseIndex, VerdictUnder); got != 1 {
		t.Errorf("under verdicts = %d, want 1", got)
	}
	if got := counter(UseIndex, VerdictUnmeasured); got != 3 {
		t.Errorf("index unmeasured verdicts = %d, want 3", got)
	}
	if got := counter(UseScan, VerdictUnmeasured); got != 1 {
		t.Errorf("scan unmeasured verdicts = %d, want 1", got)
	}

	// Uninstrumented planner: Observe is a no-op, not a panic.
	NewEstimator(tr).Observe(Plan{Engine: UseIndex}, nil)
}
