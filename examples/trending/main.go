// Trending: three capabilities beyond the paper's headline experiment in
// one scenario. A news app ranks venues by their busiest single epoch (the
// max aggregate) instead of the total, over a varied-length epoch grid
// (fine recent epochs, coarse old ones — the grid the paper sketches in
// Section 3.1), and a cost-model-driven planner decides per query whether
// the TAR-tree or a sequential scan is cheaper.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/planner"
	"tartree/internal/tia"
)

func main() {
	r := rand.New(rand.NewSource(7))
	tr, err := core.NewTree(core.Options{
		World:    geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		Grouping: core.TAR3D,
		// Geometric epochs: 1h, 2h, 4h, 8h, ... — recent history is fine
		// grained, old history coarse, and the TIA's interval records
		// handle the non-uniform grid natively.
		Epochs:  core.GeometricEpochs{Start: 0, First: 3600},
		AggFunc: tia.FuncMax,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 500 venues; one of them ("the stadium") has a single gigantic spike,
	// the rest trickle along. Under the max aggregate the spike dominates
	// even though steady venues have larger totals.
	const n = 500
	for i := 1; i <= n; i++ {
		if err := tr.InsertPOI(core.POI{ID: int64(i), X: r.Float64() * 100, Y: r.Float64() * 100}, nil); err != nil {
			log.Fatal(err)
		}
	}
	horizon := int64(64 * 3600) // 64 hours of activity
	for i := 1; i <= n; i++ {
		checkins := 50 + r.Intn(100)
		for c := 0; c < checkins; c++ {
			tr.AddCheckIn(int64(i), int64(r.Float64()*float64(horizon))) //nolint:errcheck
		}
	}
	const stadium = 42
	// A concert: 3000 check-ins within one hour.
	for c := 0; c < 3000; c++ {
		tr.AddCheckIn(stadium, 30*3600+int64(r.Intn(3600))) //nolint:errcheck
	}
	if err := tr.FlushAll(); err != nil {
		log.Fatal(err)
	}

	pl, err := planner.New(tr)
	if err != nil {
		log.Fatal(err)
	}

	// The all-time trending board: the concert's single hour beats every
	// steady venue's best epoch.
	top, _, err := tr.QueryCtx(context.Background(), core.Query{
		X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: horizon}, K: 3, Alpha0: 0.2,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all-time trending (max aggregate):")
	for i, rr := range top {
		marker := ""
		if rr.POI.ID == stadium {
			marker = "  <- the concert spike"
		}
		fmt.Printf("  %d. venue %d: busiest epoch %d check-ins%s\n", i+1, rr.POI.ID, rr.Agg, marker)
	}

	// The planner at work on an ordinary window (no outlier): the index
	// wins for small k, the scan when k approaches the venue count.
	window := tia.Interval{Start: 40 * 3600, End: horizon}
	for _, k := range []int{3, 450} {
		q := core.Query{X: 50, Y: 50, Iq: window, K: k, Alpha0: 0.5}
		_, plan, _, err := pl.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%d over the last day: planner chose %v (index cost %.1f vs scan cost %.1f)\n",
			k, plan.Engine, plan.IndexCost, plan.ScanCost)
	}
}
