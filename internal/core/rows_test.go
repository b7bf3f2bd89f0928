package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"tartree/internal/tia"
)

// rowsHistory buckets n check-in times drawn from [origin, origin+span) into
// the epochs of e.
func rowsHistory(r *rand.Rand, e Epochs, n int, span int64) []tia.Record {
	counts := map[tia.Interval]int64{}
	for i := 0; i < n; i++ {
		counts[e.EpochOf(e.Origin()+r.Int63n(span))]++
	}
	hist := make([]tia.Record, 0, len(counts))
	for iv, c := range counts {
		hist = append(hist, tia.Record{Ts: iv.Start, Te: iv.End, Agg: c})
	}
	return hist // any order: InsertPOI sorts by Put
}

// denseTree indexes 150 POIs whose histories are rowsHistory over
// [origin, origin+span) of opts' grid: dense enough that rows apply unless
// opts or the caller's additions say otherwise. It returns the random
// source to draw the rest of the test from.
func denseTree(t *testing.T, opts Options, span, seed int64) (*Tree, *rand.Rand) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr := mustTree(t, opts)
	for id := int64(1); id <= 150; id++ {
		p := POI{ID: id, X: r.Float64() * 100, Y: r.Float64() * 100}
		if err := tr.InsertPOI(p, rowsHistory(r, tr.Epochs(), 1+r.Intn(60), span)); err != nil {
			t.Fatal(err)
		}
	}
	return tr, r
}

// rowsIntervals draws n query intervals around [origin, origin+span): on
// and a unit off epoch boundaries, shorter than an epoch, reaching past
// either end of the data, and the whole axis.
func rowsIntervals(r *rand.Rand, e Epochs, n int, span int64) []tia.Interval {
	o := e.Origin()
	ivs := []tia.Interval{
		{Start: math.MinInt64, End: math.MaxInt64},
		{Start: math.MinInt64, End: o + 1},
		{Start: o + span - 1, End: math.MaxInt64},
		{Start: o - 100, End: o},
		{Start: o + 2*span, End: o + 3*span},
	}
	at := func() int64 { return o - span/8 + r.Int63n(span+span/4) }
	for len(ivs) < n {
		var iv tia.Interval
		switch r.Intn(3) {
		case 0: // epoch boundaries, nudged by −1, 0 or +1
			a, b := at(), at()
			if a > b {
				a, b = b, a
			}
			iv = tia.Interval{Start: e.EpochOf(max(a, o)).Start + r.Int63n(3) - 1, End: e.EpochOf(max(b, o)).End + r.Int63n(3) - 1}
		case 1: // short, often inside one epoch
			s := at()
			iv = tia.Interval{Start: s, End: s + 1 + r.Int63n(8)}
		default:
			s := at()
			iv = tia.Interval{Start: s, End: s + 1 + r.Int63n(span)}
		}
		if iv.End > iv.Start {
			ivs = append(ivs, iv)
		}
	}
	return ivs
}

// checkRows requires the compiled layout to carry prefix rows, and a probe
// of every flat entry over every interval — through the scorer, as a
// search makes it — to equal the fold of the entry's records.
func checkRows(t *testing.T, tr *Tree, ivs []tia.Interval) *layout {
	t.Helper()
	l := tr.compiled()
	if l.rows == nil {
		t.Fatal("no prefix rows compiled")
	}
	sem := tr.opts.Semantics
	for _, iv := range ivs {
		sc, err := tr.newScorer(Query{Iq: iv, K: 1, Alpha0: 0.5}, nil, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sc.useRows(l.rows)
		for eid, d := range l.ft.Data {
			got, err := sc.aggregate(int32(eid), tiaOf(d))
			if err != nil {
				t.Fatal(err)
			}
			want, err := tiaOf(d).Aggregate(iv, sem, tia.FuncSum)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("entry %d over %+v: rows %d, records fold %d (epochs [%d, %d))", eid, iv, got, want, sc.e0, sc.e1)
			}
		}
	}
	return l
}

// TestPrefixRowsMatchAggregate: under both semantics, on a fixed and a
// geometric grid, a row probe equals Aggregate for every flat entry over
// 250 intervals — on the built tree, after a check-in flush (which keeps
// the layout and recompiles the rows), and after InsertPOI and DeletePOI
// (which recompile both).
func TestPrefixRowsMatchAggregate(t *testing.T) {
	grids := map[string]struct {
		e    Epochs
		span int64
	}{
		"fixed":     {FixedEpochs{Start: -35, Length: 10}, 400},
		"geometric": {GeometricEpochs{Start: 5, First: 3}, 3 * 255},
	}
	for name, grid := range grids {
		for _, sem := range []tia.Semantics{tia.Contained, tia.Intersecting} {
			t.Run(name+"/"+[]string{"contained", "intersecting"}[sem], func(t *testing.T) {
				opts := Options{World: world(0, 0, 100, 100), Epochs: grid.e, Semantics: sem}
				tr, r := denseTree(t, opts, grid.span, int64(len(name))+int64(sem))
				const pois = 150
				ivs := rowsIntervals(r, grid.e, 250, grid.span)
				built := checkRows(t, tr, ivs)

				// A flush drops the rows only, and compiles nothing itself.
				for i := 0; i < 400; i++ {
					at := grid.e.Origin() + r.Int63n(grid.span+grid.span/2)
					if err := tr.AddCheckIn(1+r.Int63n(pois), at); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.FlushAll(); err != nil {
					t.Fatal(err)
				}
				if l := tr.flat.Load(); l.ft != built.ft || !l.stale {
					t.Fatalf("the flush replaced the layout (%v) or kept its rows (stale %v)", l.ft != built.ft, l.stale)
				}
				ivs = rowsIntervals(r, grid.e, 250, grid.span+grid.span/2)
				if l := checkRows(t, tr, ivs); l.ft != built.ft || l.rows == built.rows {
					t.Fatal("the search after a flush did not recompile the rows over the same layout")
				}

				if err := tr.InsertPOI(POI{ID: pois + 1, X: 50, Y: 50}, rowsHistory(r, grid.e, 90, grid.span)); err != nil {
					t.Fatal(err)
				}
				checkRows(t, tr, ivs)
				if _, err := tr.DeletePOI(2); err != nil {
					t.Fatal(err)
				}
				checkRows(t, tr, ivs)
			})
		}
	}
}

// TestPrefixRowsAbsent: on a tree that compiles rows, they are not
// compiled for the max fold, for paged TIAs, once one record lies ~10^17
// epochs out, or once the global total passes int32; nor for an image whose
// global TIA does not dominate its entries, or a grid whose epoch count
// wraps. Searches then fold the records and still answer what the scan
// does.
func TestPrefixRowsAbsent(t *testing.T) {
	dense := func(opts Options, extra ...tia.Record) *Tree {
		tr, _ := denseTree(t, opts, 400, 3)
		if len(extra) > 0 {
			if err := tr.InsertPOI(POI{ID: 1000, X: 40, Y: 60}, extra); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	if dense(defaultOpts(TAR3D)).compiled().rows == nil {
		t.Fatal("the control tree compiled no rows")
	}
	paged := defaultOpts(TAR3D)
	paged.TIA = tia.NewBTreeFactory(1024, 10)
	maxFold := defaultOpts(TAR3D)
	maxFold.AggFunc = tia.FuncMax
	for name, build := range map[string]func() *Tree{
		"max":               func() *Tree { return dense(maxFold) },
		"btree":             func() *Tree { return dense(paged) },
		"far epoch":         func() *Tree { return dense(defaultOpts(TAR3D), lastEpochRecord()) },
		"past int32":        func() *Tree { return dense(defaultOpts(TAR3D), tia.Record{Ts: 30, Te: 40, Agg: math.MaxInt32}) },
		"undominated image": func() *Tree { return undominatedTree(t) },
		"wrapped epoch count": func() *Tree {
			// Ts − Start passes math.MaxInt64: Count wraps negative.
			tr := mustTree(t, Options{World: world(0, 0, 100, 100), Epochs: FixedEpochs{Start: -5e18, Length: 1}})
			for id, ts := range []int64{0, 5e18} {
				if err := tr.InsertPOI(POI{ID: int64(id + 1), X: 40, Y: 60}, []tia.Record{{Ts: ts, Te: ts + 1, Agg: 1}}); err != nil {
					t.Fatal(err)
				}
			}
			return tr
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := build()
			if l := tr.compiled(); l.rows != nil {
				t.Fatal("prefix rows compiled")
			}
			for _, q := range append(flatTestQueries(tr), Query{X: 40, Y: 60, Iq: tia.Interval{Start: 0, End: math.MaxInt64}, K: 5, Alpha0: 0.5}) {
				got, _, err := tr.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstScan(t, tr, q, got)
			}
		})
	}

	// A global total that wraps int64 is refused too. (Its answers are not
	// compared: the wrapped normalizer breaks the fold's as well.)
	if dense(defaultOpts(TAR3D), tia.Record{Ts: 30, Te: 40, Agg: math.MaxInt64}).compiled().rows != nil {
		t.Fatal("prefix rows compiled over a total past int64")
	}
}

// undominatedTree loads an image whose global TIA holds less than its one
// POI in the POI's only epoch: the image of a tree with one record, the
// global's copy lowered from 3 to 1 in place. Nothing else is wrong with it.
func undominatedTree(t *testing.T) *Tree {
	tr := mustTree(t, defaultOpts(TAR3D))
	rec := tia.Record{Ts: 20, Te: 30, Agg: 3}
	if err := tr.InsertPOI(POI{ID: 1, X: 40, Y: 60}, []tia.Record{rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	at := bytes.Index(img, tia.AppendPacked(nil, []tia.Record{rec})) // the global's comes first
	if at < 0 {
		t.Fatal("packed record not found in the image")
	}
	img[at+len(tia.AppendPacked(nil, []tia.Record{{Ts: rec.Ts, Te: rec.Te}}))-1] = byte(binary.AppendVarint(nil, 1)[0])
	resealV3(img)
	got, err := LoadSnapshot(bytes.NewReader(img), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.global.Records(); len(g) != 1 || g[0].Agg != 1 {
		t.Fatalf("the doctored global TIA reads %v", g)
	}
	return got
}

// TestOffGridRecordsRefused: InsertPOI refuses, with ErrInvalid and no
// change to the tree, a record that is not an epoch of the grid or has a
// negative aggregate; the snapshot loader refuses an image holding one.
func TestOffGridRecordsRefused(t *testing.T) {
	for name, rec := range map[string]tia.Record{
		"misaligned":     {Ts: 5, Te: 15, Agg: 1},
		"short":          {Ts: 10, Te: 15, Agg: 1},
		"two epochs":     {Ts: 10, Te: 30, Agg: 1},
		"before origin":  {Ts: -10, Te: 0, Agg: 1},
		"negative count": {Ts: 10, Te: 20, Agg: -1},
	} {
		tr := mustTree(t, defaultOpts(TAR3D))
		hist := []tia.Record{{Ts: 0, Te: 10, Agg: 2}, rec}
		if err := tr.InsertPOI(POI{ID: 1, X: 5, Y: 5}, hist); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: InsertPOI = %v, want ErrInvalid", name, err)
		}
		if tr.Len() != 0 || len(tr.global.Records()) != 0 {
			t.Fatalf("%s: a refused POI changed the tree", name)
		}
	}

	// An image of a valid tree with one record moved off the grid in
	// place: the packed epoch length 10 becomes 9.
	tr := mustTree(t, defaultOpts(TAR3D))
	rec := tia.Record{Ts: 1_000_000, Te: 1_000_010, Agg: 3}
	if err := tr.InsertPOI(POI{ID: 1, X: 5, Y: 5}, []tia.Record{rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	at := bytes.Index(img, tia.AppendPacked(nil, []tia.Record{rec}))
	if at < 0 {
		t.Fatal("packed record not found in the image")
	}
	img[at+len(binary.AppendVarint(nil, rec.Ts))] = 9 // the uvarint Te − Ts
	resealV3(img)
	if _, err := LoadSnapshot(bytes.NewReader(img), nil); err == nil {
		t.Fatal("an image with an off-grid record loaded")
	}
}

// BenchmarkAggregateRows is one probe as Scorer.aggregate makes it from the
// prefix rows, on the shape of tia's BenchmarkAggregateMem (its record-fold
// counterpart): 256 POIs of 7-day epochs over two years, each holding a
// random three quarters of them, probed round-robin with stream-shaped
// intervals (2^U{0..9} days ending inside the span). The interval's epoch
// range is mapped once per query, outside the loop, as newSearch does.
func BenchmarkAggregateRows(b *testing.B) {
	const day, epochs = 86400, 104
	rng := rand.New(rand.NewSource(1))
	tr := mustTree(b, Options{World: world(0, 0, 100, 100), EpochLength: 7 * day})
	for id := int64(1); id <= 256; id++ {
		var hist []tia.Record
		for e := int64(0); e < epochs; e++ {
			if rng.Intn(4) > 0 {
				hist = append(hist, tia.Record{Ts: e * 7 * day, Te: (e + 1) * 7 * day, Agg: 1 + rng.Int63n(50)})
			}
		}
		if err := tr.InsertPOI(POI{ID: id, X: rng.Float64() * 100, Y: rng.Float64() * 100}, hist); err != nil {
			b.Fatal(err)
		}
	}
	l := tr.compiled()
	if l.rows == nil {
		b.Fatal("no prefix rows compiled")
	}
	var leaves []int32
	for eid, child := range l.ft.Children {
		if child < 0 {
			leaves = append(leaves, int32(eid))
		}
	}
	scs := make([]*Scorer, 1024)
	for i := range scs {
		end := 1 + rng.Int63n(epochs*7*day)
		q := Query{Iq: tia.Interval{Start: end - day<<uint(rng.Intn(10)), End: end}, K: 1, Alpha0: 0.5}
		sc, err := tr.newScorer(q, nil, SearchOptions{Gmax: new(float64)})
		if err != nil {
			b.Fatal(err)
		}
		sc.useRows(l.rows)
		scs[i] = sc
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		eid := leaves[i%len(leaves)]
		a, err := scs[i%len(scs)].aggregate(eid, tiaOf(l.ft.Data[eid]))
		if err != nil {
			b.Fatal(err)
		}
		sink += a
	}
	rowsSink = sink
}

var rowsSink int64
