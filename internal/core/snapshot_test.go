package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"tartree/internal/tia"
)

func TestSnapshotRoundTrip(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr, r := buildRandomTree(t, g, 300, 17)
			var buf bytes.Buffer
			if err := tr.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadSnapshot(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tr.Len() {
				t.Fatalf("len = %d, want %d", got.Len(), tr.Len())
			}
			if err := got.Check(); err != nil {
				t.Fatal(err)
			}
			// Identical query results.
			for trial := 0; trial < 10; trial++ {
				q := Query{
					X: r.Float64() * 100, Y: r.Float64() * 100,
					Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(120 + r.Intn(80))},
					K:      5,
					Alpha0: 0.3,
				}
				a, _, err := tr.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := got.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("result counts differ")
				}
				for i := range a {
					if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
						t.Fatalf("trial %d pos %d: %.9f vs %.9f", trial, i, a[i].Score, b[i].Score)
					}
				}
			}
			// The restored tree accepts further updates.
			if err := got.InsertPOI(POI{ID: 9999, X: 2, Y: 2}, nil); err != nil {
				t.Fatal(err)
			}
			if err := got.AddCheckIn(9999, got.clock+1); err != nil {
				t.Fatal(err)
			}
			if err := got.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := got.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotPreservesPending pins the no-check-in-loss property through a
// snapshot+recover cycle: check-ins buffered but not yet flushed must
// survive SaveSnapshot/LoadSnapshot and fold into the same aggregates as on
// the original tree. (Before snapshot version 2, SaveSnapshot refused trees
// with pending check-ins, forcing every checkpoint to flush first.)
func TestSnapshotPreservesPending(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr := mustTree(t, defaultOpts(g))
			for id := int64(1); id <= 5; id++ {
				if err := tr.InsertPOI(POI{ID: id, X: float64(id) * 3, Y: float64(id) * 7}, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Buffer check-ins across two epochs without flushing.
			for i := 0; i < 30; i++ {
				id := int64(i%5 + 1)
				if err := tr.AddCheckIn(id, int64(i*5)); err != nil {
					t.Fatal(err)
				}
			}
			want := tr.PendingCheckIns()
			if want == 0 {
				t.Fatal("test produced no pending check-ins")
			}

			var buf bytes.Buffer
			if err := tr.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadSnapshot(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := got.PendingCheckIns(); n != want {
				t.Fatalf("restored tree has %d pending check-ins, want %d", n, want)
			}

			// Flushing both trees must yield identical aggregates.
			if err := tr.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := got.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if n := got.PendingCheckIns(); n != 0 {
				t.Fatalf("restored tree still has %d pending after FlushAll", n)
			}
			iv := tia.Interval{Start: 0, End: 1000}
			for id := int64(1); id <= 5; id++ {
				a, err := tr.Aggregate(id, iv)
				if err != nil {
					t.Fatal(err)
				}
				b, err := got.Aggregate(id, iv)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Errorf("POI %d: aggregate %d after restore, want %d", id, b, a)
				}
			}
			if err := got.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSnapshotGeometricEpochs(t *testing.T) {
	opts := Options{
		World:    world(0, 0, 100, 100),
		Grouping: TAR3D,
		Epochs:   GeometricEpochs{Start: 0, First: 10},
	}
	tr := mustTree(t, opts)
	tr.InsertPOI(POI{ID: 1, X: 5, Y: 5}, []tia.Record{{Ts: 0, Te: 10, Agg: 3}})
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Epochs().(GeometricEpochs); !ok {
		t.Fatalf("epochs = %T, want GeometricEpochs", got.Epochs())
	}
	a, _ := got.Aggregate(1, tia.Interval{Start: 0, End: 100})
	if a != 3 {
		t.Fatalf("aggregate = %d", a)
	}
}

func TestSnapshotGarbage(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewReader([]byte("not a snapshot")), nil); err == nil {
		t.Fatal("garbage accepted")
	}
}
