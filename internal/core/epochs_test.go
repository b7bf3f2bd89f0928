package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tartree/internal/tia"
)

func TestFixedEpochs(t *testing.T) {
	e := FixedEpochs{Start: 100, Length: 10}
	cases := []struct {
		t    int64
		want tia.Interval
	}{
		{100, tia.Interval{Start: 100, End: 110}},
		{109, tia.Interval{Start: 100, End: 110}},
		{110, tia.Interval{Start: 110, End: 120}},
		{205, tia.Interval{Start: 200, End: 210}},
	}
	for _, c := range cases {
		if got := e.EpochOf(c.t); got != c.want {
			t.Errorf("EpochOf(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := e.Count(100); got != 1 {
		t.Errorf("Count(origin) = %d", got)
	}
	if got := e.Count(105); got != 1 {
		t.Errorf("Count(105) = %d", got)
	}
	if got := e.Count(110); got != 2 {
		t.Errorf("Count(110) = %d", got)
	}
	if got := e.Count(129); got != 3 {
		t.Errorf("Count(129) = %d", got)
	}
	if e.Origin() != 100 {
		t.Error("origin")
	}
}

func TestGeometricEpochs(t *testing.T) {
	// First = 1h: epochs [0,1h), [1h,3h), [3h,7h), [7h,15h), ...
	const h = 3600
	e := GeometricEpochs{Start: 0, First: h}
	cases := []struct {
		t    int64
		want tia.Interval
	}{
		{0, tia.Interval{Start: 0, End: h}},
		{h - 1, tia.Interval{Start: 0, End: h}},
		{h, tia.Interval{Start: h, End: 3 * h}},
		{3 * h, tia.Interval{Start: 3 * h, End: 7 * h}},
		{6*h + 30, tia.Interval{Start: 3 * h, End: 7 * h}},
		{7 * h, tia.Interval{Start: 7 * h, End: 15 * h}},
	}
	for _, c := range cases {
		if got := e.EpochOf(c.t); got != c.want {
			t.Errorf("EpochOf(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := e.Count(0); got != 1 {
		t.Errorf("Count(0) = %d", got)
	}
	if got := e.Count(h + 1); got != 2 {
		t.Errorf("Count(h+1) = %d", got)
	}
	if got := e.Count(8 * h); got != 4 {
		t.Errorf("Count(8h) = %d", got)
	}
}

// Property: for any epoch scheme, EpochOf(t) contains t, epochs tile the
// axis (EpochOf of the end is the next epoch), and Count is monotone.
func TestEpochsProperties(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	schemes := []Epochs{
		FixedEpochs{Start: 0, Length: 7},
		FixedEpochs{Start: -50, Length: 13},
		GeometricEpochs{Start: 10, First: 3},
	}
	for _, e := range schemes {
		if err := validateEpochs(e); err != nil {
			t.Fatal(err)
		}
		f := func() bool {
			at := e.Origin() + int64(r.Intn(1_000_000))
			iv := e.EpochOf(at)
			if !(iv.Start <= at && at < iv.End) {
				return false
			}
			next := e.EpochOf(iv.End)
			if next.Start != iv.End {
				return false
			}
			return e.Count(at) <= e.Count(at+1000)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%T: %v", e, err)
		}
	}
}

// TestCountAtEpochStart: Count counts the epoch that begins at until, so
// the epoch holding t has index Count(EpochOf(t).Start) − 1 on both grids.
// The columns and epochsElapsed (λ̂) both read epoch indices this way.
func TestCountAtEpochStart(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, e := range []Epochs{
		FixedEpochs{Start: 0, Length: 7},
		FixedEpochs{Start: -50, Length: 13},
		GeometricEpochs{Start: 0, First: 1},
		GeometricEpochs{Start: 10, First: 3},
	} {
		// Walk the grid epoch by epoch; index i's epoch starts where i−1's ends.
		iv := e.EpochOf(e.Origin())
		for i := int64(0); i < 30; i++ {
			if got := e.Count(iv.Start); got != i+1 {
				t.Fatalf("%T%+v: Count(start of epoch %d = %d) = %d, want %d", e, e, i, iv.Start, got, i+1)
			}
			iv = e.EpochOf(iv.End)
		}
		f := func() bool {
			at := e.Origin() + int64(r.Intn(1_000_000))
			ep := e.EpochOf(at)
			return e.Count(ep.Start) == e.Count(at) && e.Count(ep.End) == e.Count(at)+1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%T: %v", e, err)
		}
	}
}

// TestGeometricEpochTree runs the whole pipeline on a varied-length grid:
// live ingestion, TIA aggregation and BFS-vs-brute-force equality. This is
// the capability the paper claims the aRB-tree lacks.
func TestGeometricEpochTree(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	opts := Options{
		World:    world(0, 0, 100, 100),
		Grouping: TAR3D,
		Epochs:   GeometricEpochs{Start: 0, First: 10},
	}
	tr := mustTree(t, opts)
	const n = 200
	for i := 1; i <= n; i++ {
		if err := tr.InsertPOI(POI{ID: int64(i), X: r.Float64() * 100, Y: r.Float64() * 100}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Check-ins over [0, 10000): epochs 10, 20, 40, ... long.
	for i := 0; i < 5000; i++ {
		id := int64(1 + r.Intn(n))
		at := int64(r.Intn(10000))
		if err := tr.AddCheckIn(id, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Aggregates against a brute-force bucketing.
	e := opts.Epochs
	iv := tia.Interval{Start: 30, End: 5000}
	for id := int64(1); id <= 10; id++ {
		got, err := tr.Aggregate(id, iv)
		if err != nil {
			t.Fatal(err)
		}
		mirror, err := tr.AggregateMirror(id, iv)
		if err != nil {
			t.Fatal(err)
		}
		if got != mirror {
			t.Fatalf("POI %d: disk %d != mirror %d", id, got, mirror)
		}
		_ = e
	}
	// BFS equals brute force under the varied grid.
	for trial := 0; trial < 10; trial++ {
		q := Query{
			X: r.Float64() * 100, Y: r.Float64() * 100,
			Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(1000 + r.Intn(9000))},
			K:      5,
			Alpha0: 0.3,
		}
		got, _, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceQuery(t, tr, q)
		for i := range want {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("trial %d pos %d: %.9f vs %.9f", trial, i, got[i].Score, want[i].Score)
			}
		}
	}
}

func TestEpochsValidation(t *testing.T) {
	if err := validateEpochs(nil); err == nil {
		t.Error("nil epochs accepted")
	}
	if err := validateEpochs(FixedEpochs{Start: 0, Length: 10}); err != nil {
		t.Error(err)
	}
}

// TestCheckInOutsideEveryEpochRefused: on both grids, AddCheckIn refuses
// with ErrInvalid, and buffers nothing, a time whose epoch would end past
// math.MaxInt64 — FixedEpochs.EpochOf wraps there, and GeometricEpochs caps
// its exponent at 62 — as it refuses a time before the origin; the last
// time whose epoch fits is taken, and its flushed record is a valid epoch.
func TestCheckInOutsideEveryEpochRefused(t *testing.T) {
	const week = 7 * 86400
	for name, e := range map[string]Epochs{
		"fixed":     FixedEpochs{Start: 1_000, Length: week},
		"geometric": GeometricEpochs{Start: 1_000, First: 3600},
	} {
		t.Run(name, func(t *testing.T) {
			tr := mustTree(t, Options{World: world(0, 0, 100, 100), Epochs: e})
			if err := tr.InsertPOI(POI{ID: 1, X: 5, Y: 5}, nil); err != nil {
				t.Fatal(err)
			}
			for _, at := range []int64{math.MaxInt64, math.MaxInt64 - 3, 999} {
				if err := tr.AddCheckIn(1, at); !errors.Is(err, ErrInvalid) {
					t.Errorf("AddCheckIn(%d) = %v, want ErrInvalid", at, err)
				}
			}
			if err := tr.AddCheckIn(2, 5_000); !errors.Is(err, ErrInvalid) {
				t.Errorf("a check-in for an unknown POI: %v, want ErrInvalid", err)
			}
			if n := tr.PendingCheckIns(); n != 0 {
				t.Fatalf("%d refused check-ins buffered", n)
			}

			// The latest epoch that ends by math.MaxInt64 takes a check-in.
			var last tia.Interval
			switch e := e.(type) {
			case FixedEpochs:
				s := e.Start + ((math.MaxInt64-e.Start)/e.Length-1)*e.Length
				last = tia.Interval{Start: s, End: s + e.Length}
			case GeometricEpochs:
				for iv := e.EpochOf(e.Start); iv.Start < iv.End; iv = e.EpochOf(iv.End) {
					last = iv
				}
			}
			if err := tr.AddCheckIn(1, last.End-1); err != nil {
				t.Fatalf("a check-in in the last epoch %+v: %v", last, err)
			}
			if err := tr.FlushAll(); err != nil {
				t.Fatal(err)
			}
			h, err := tr.History(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(h) != 1 || h[0] != (tia.Record{Ts: last.Start, Te: last.End, Agg: 1}) {
				t.Fatalf("history %v, want one record of %+v", h, last)
			}
		})
	}
}
