package tartree_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"tartree"
)

// TestFacadeEndToEnd drives the public API exactly as the README's
// quickstart does: build, insert, ingest check-ins, flush, query.
func TestFacadeEndToEnd(t *testing.T) {
	tr, err := tartree.New(tartree.Options{
		World:       tartree.WorldRect(0, 0, 100, 100),
		EpochStart:  0,
		EpochLength: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertPOI(tartree.POI{ID: 1, X: 20, Y: 30}, []tartree.Record{
		{Ts: 0, Te: 3600, Agg: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertPOI(tartree.POI{ID: 2, X: 60, Y: 65}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tr.AddCheckIn(2, 3600+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FlushEpochs(2 * 3600); err != nil {
		t.Fatal(err)
	}
	results, stats, err := tr.QueryCtx(context.Background(), tartree.Query{
		X: 50, Y: 50,
		Iq:     tartree.Interval{Start: 0, End: 2 * 3600},
		K:      2,
		Alpha0: 0.3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// POI 2: closer to the query point and more popular — must rank first.
	if results[0].POI.ID != 2 {
		t.Errorf("top-1 = %d, want 2", results[0].POI.ID)
	}
	if results[0].Agg != 10 {
		t.Errorf("agg = %d, want 10", results[0].Agg)
	}
	if stats.RTreeAccesses() == 0 {
		t.Error("no node accesses recorded")
	}
	// Score arithmetic: α0·S0 + α1·S1.
	for _, r := range results {
		if math.Abs(r.Score-(0.3*r.S0+0.7*r.S1)) > 1e-12 {
			t.Errorf("score components inconsistent: %+v", r)
		}
	}
	// Grouping constants exist and stringify.
	for _, g := range []tartree.Grouping{tartree.TAR3D, tartree.IndSpa, tartree.IndAgg} {
		if g.String() == "" {
			t.Error("empty grouping name")
		}
	}
}

// TestFacadeSnapshot exercises the save/load cycle through the facade.
func TestFacadeSnapshot(t *testing.T) {
	tr, err := tartree.New(tartree.Options{
		World:       tartree.WorldRect(0, 0, 10, 10),
		EpochStart:  0,
		EpochLength: 10,
		AggFunc:     tartree.AggMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.InsertPOI(tartree.POI{ID: 1, X: 1, Y: 1}, []tartree.Record{{Ts: 0, Te: 10, Agg: 7}})
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := tartree.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("len = %d", got.Len())
	}
	a, err := got.Aggregate(1, tartree.Interval{Start: 0, End: 100})
	if err != nil || a != 7 {
		t.Fatalf("aggregate = %d %v", a, err)
	}
}

// TestFacadeGeometricEpochs drives the varied-length grid via the facade.
func TestFacadeGeometricEpochs(t *testing.T) {
	tr, err := tartree.New(tartree.Options{
		World:  tartree.WorldRect(0, 0, 10, 10),
		Epochs: tartree.GeometricEpochs{Start: 0, First: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.InsertPOI(tartree.POI{ID: 1, X: 1, Y: 1}, nil)
	tr.AddCheckIn(1, 30)
	tr.AddCheckIn(1, 100) // second epoch [60, 180)
	if err := tr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	a, err := tr.Aggregate(1, tartree.Interval{Start: 0, End: 180})
	if err != nil || a != 2 {
		t.Fatalf("aggregate = %d %v", a, err)
	}
}
