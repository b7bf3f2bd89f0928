package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tartree/internal/obs"
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
// [origin, origin+span) of opts' grid: dense enough that columns apply unless
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

// colsTwin returns a tree built as denseTree builds tr, on paged TIAs: the
// same flat layout, whose TIAs keep their records and fold them through
// every flush. It is the reference the columns are checked against.
func colsTwin(t *testing.T, tr *Tree, span, seed int64) *Tree {
	t.Helper()
	opts := tr.Options()
	opts.Metrics, opts.TIA = nil, tia.NewBTreeFactory(1024, 10)
	twin, _ := denseTree(t, opts, span, seed)
	return twin
}

// checkCols requires tr to hold what twin holds — the same layout, the
// same records under every POI — and its columns to be what a fresh
// compile of twin's records gives cell for cell, or, where a fresh compile
// gives none, tr to have none either and fold its records again. A probe
// of every flat entry over every interval, through the scorer as a search
// makes it, must equal the fold of twin's records. It reads the published
// layout as it stands, compiling one only when there is none.
func checkCols(t *testing.T, tr, twin *Tree, ivs []tia.Interval) *layout {
	t.Helper()
	l := tr.compiled()
	ref := twin.Freeze()
	if !slices.Equal(l.ft.Items, ref.Items) || !slices.Equal(l.ft.Children, ref.Children) {
		t.Fatal("the twin's layout differs")
	}
	for id := range twin.pois {
		got, _ := tr.History(id)
		want, _ := twin.History(id)
		if !slices.Equal(got, want) {
			t.Fatalf("POI %d holds %v, the twin %v", id, got, want)
		}
	}
	fresh := buildCols(twin.opts.Epochs, twin.global.Records(), ref, false)
	switch {
	case l.cols == nil && fresh != nil:
		t.Fatal("no columns where a fresh compile has them")
	case l.cols != nil && fresh == nil:
		t.Fatal("columns where a fresh compile refuses them")
	case l.cols != nil && (!slices.Equal(l.cols.cells, fresh.cells) || !slices.Equal(l.cols.spans, fresh.spans) || l.cols.records != fresh.records):
		t.Fatalf("the columns (E = %d, %d records) differ from a fresh compile (E = %d, %d records)", l.cols.epochs(), l.cols.records, fresh.epochs(), fresh.records)
	}
	sem := tr.opts.Semantics
	for _, iv := range ivs {
		sc, err := tr.newScorer(Query{Iq: iv, K: 1, Alpha0: 0.5}, nil, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sc.useCols(l.cols)
		for eid, d := range l.ft.Data {
			got, err := sc.aggregate(int32(eid), tiaOf(d))
			if err != nil {
				t.Fatal(err)
			}
			if want := tia.AggregateRecords(tiaOf(ref.Data[eid]).Records(), iv, sem, tia.FuncSum); got != want {
				t.Fatalf("entry %d over %+v: probe %d, the twin's records fold %d (columns %v)", eid, iv, got, want, l.cols != nil)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	return l
}

// flushBoth buffers the check-ins of at, POI ids drawn from r, in both
// trees and flushes them; counts, when set, is buffered as it is instead.
func flushBoth(t *testing.T, r *rand.Rand, trees []*Tree, at []int64, counts map[tia.Interval]map[int64]int64) {
	t.Helper()
	ids := make([]int64, len(at))
	for i := range ids {
		ids[i] = 1 + r.Int63n(150)
	}
	for _, tr := range trees {
		for i, ts := range at {
			if err := tr.AddCheckIn(ids[i], ts); err != nil {
				t.Fatal(err)
			}
		}
		for ep, m := range counts {
			tr.pending[ep] = maps.Clone(m)
		}
		if err := tr.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrefixRowsMatchAggregate: under both semantics, on a fixed and a
// geometric grid, the columns equal a fresh compile of a paged twin's
// records cell for cell, and a column probe equals the twin's fold for
// every flat entry over 250 intervals — on the built tree, and after each
// flush of a sequence: a new epoch, then older epochs, then either a flush
// that pushes the global total past int32 or one far (representable) epoch
// out. Each flush patches the columns of the layout it found, and the
// search after it compiles nothing; a flush the columns no longer fit turns
// them off, without allocating the gap, and the tree folds its records as a
// fresh compile would decide. InsertPOI and DeletePOI recompile both.
func TestPrefixRowsMatchAggregate(t *testing.T) {
	grids := map[string]struct {
		e    Epochs
		span int64
		far  int64 // a check-in time many epochs past the data
	}{
		"fixed":     {FixedEpochs{Start: -35, Length: 10}, 400, -35 + 10*1e12},
		"geometric": {GeometricEpochs{Start: 5, First: 3}, 3 * 255, 5 + 3*(1<<40)},
	}
	for name, grid := range grids {
		for _, sem := range []tia.Semantics{tia.Contained, tia.Intersecting} {
			t.Run(name+"/"+[]string{"contained", "intersecting"}[sem], func(t *testing.T) {
				for _, last := range []string{"past int32", "far epoch"} {
					t.Run(last, func(t *testing.T) {
						reg := obs.NewRegistry()
						opts := Options{World: world(0, 0, 100, 100), Epochs: grid.e, Semantics: sem, Metrics: reg}
						seed := int64(len(name)) + int64(sem)
						tr, r := denseTree(t, opts, grid.span, seed)
						twin := colsTwin(t, tr, grid.span, seed)
						trees := []*Tree{tr, twin}
						ivs := rowsIntervals(r, grid.e, 250, grid.span)
						built := checkCols(t, tr, twin, ivs)
						compiles := reg.Counter("tartree_freezes_total")

						o := grid.e.Origin()
						end := grid.e.EpochOf(o + grid.span - 1).End
						// A new epoch, then the older ones.
						steps := [][]int64{{end, end + 1, end}, nil}
						for i := 0; i < 300; i++ {
							steps[1] = append(steps[1], o+r.Int63n(grid.span))
						}
						for _, at := range steps {
							flushBoth(t, r, trees, at, nil)
							if l := tr.flat.Load(); l != built || l.cols == nil {
								t.Fatal("the flush replaced the layout or dropped its columns")
							}
							q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: o, End: end + grid.span}, K: 10, Alpha0: 0.5}
							got, _, err := tr.QueryCtx(context.Background(), q, nil)
							if err != nil {
								t.Fatal(err)
							}
							checkAgainstScan(t, tr, q, got)
							if n := compiles.Value(); n != 1 || tr.flat.Load() != built {
								t.Fatalf("the search after a flush compiled (%d compiles in all)", n)
							}
							checkCols(t, tr, twin, rowsIntervals(r, grid.e, 250, 2*grid.span))
						}

						var before runtime.MemStats
						runtime.ReadMemStats(&before)
						if last == "past int32" {
							ep := grid.e.EpochOf(o)
							flushBoth(t, r, trees, nil, map[tia.Interval]map[int64]int64{ep: {7: math.MaxInt32}})
						} else {
							flushBoth(t, r, trees, []int64{grid.far}, nil)
						}
						var after runtime.MemStats
						runtime.ReadMemStats(&after)
						l := tr.flat.Load()
						if l.ft != built.ft {
							t.Fatal("the flush replaced the flat tree")
						}
						if l.cols == nil && after.TotalAlloc-before.TotalAlloc > 4<<20 {
							t.Fatalf("the flush that turned the columns off allocated %d B", after.TotalAlloc-before.TotalAlloc)
						}
						if last == "past int32" && l.cols != nil {
							t.Fatal("columns kept past int32")
						}
						ivs = append(rowsIntervals(r, grid.e, 250, 2*grid.span), tia.Interval{Start: grid.far - 1, End: grid.far + 1})
						checkCols(t, tr, twin, ivs)

						hist := rowsHistory(r, grid.e, 90, grid.span)
						for _, tr := range trees {
							if err := tr.InsertPOI(POI{ID: 151, X: 50, Y: 50}, hist); err != nil {
								t.Fatal(err)
							}
						}
						checkCols(t, tr, twin, ivs)
						for _, tr := range trees {
							if _, err := tr.DeletePOI(2); err != nil {
								t.Fatal(err)
							}
						}
						checkCols(t, tr, twin, ivs)
					})
				}
			})
		}
	}
}

// TestColumnsCompileOnceTheyFit: a tree compiled before it held enough
// records — POIs indexed without history, as a server that replays its
// check-ins starts — has no columns; the flush that fills it compiles them
// as a fresh compile of a paged twin's records does, and the search after
// it reads them.
func TestColumnsCompileOnceTheyFit(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var trees []*Tree
	for _, fac := range []tia.Factory{nil, tia.NewBTreeFactory(1024, 10)} {
		trees = append(trees, mustTree(t, Options{World: world(0, 0, 100, 100), EpochLength: 10, TIA: fac}))
	}
	for id := int64(1); id <= 150; id++ {
		p := POI{ID: id, X: r.Float64() * 100, Y: r.Float64() * 100}
		for _, tr := range trees {
			if err := tr.InsertPOI(p, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr := trees[0]
	if tr.compiled().cols != nil {
		t.Fatal("columns compiled over no records")
	}
	at := make([]int64, 3000)
	for i := range at {
		at[i] = r.Int63n(300)
	}
	flushBoth(t, r, trees, at, nil)
	if tr.flat.Load().cols == nil {
		t.Fatal("the flush that filled the tree compiled no columns")
	}
	checkCols(t, tr, trees[1], rowsIntervals(r, tr.Epochs(), 250, 300))
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 300}, K: 10, Alpha0: 0.5}
	got, _, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstScan(t, tr, q, got)
}

// TestEachBlockMatchesDerive: the blocked derive that checkpoints and
// dissolve read yields, for every entry in entry order, the records derive
// yields one entry at a time, the short last block included.
func TestEachBlockMatchesDerive(t *testing.T) {
	tr, _ := denseTree(t, Options{World: world(0, 0, 100, 100), EpochLength: 10}, 400, 3)
	c := tr.compiled().cols
	if c == nil || c.n%blockEntries == 0 {
		t.Fatalf("want columns over a partial last block, got %v", c)
	}
	next := 0
	c.eachBlock(func(lo int, recs [][]tia.Record) {
		if lo != next {
			t.Fatalf("block at %d, want %d", lo, next)
		}
		for i, got := range recs {
			if want := c.derive(nil, int32(lo+i)); !slices.Equal(got, want) {
				t.Fatalf("entry %d: blocked %v, derive %v", lo+i, got, want)
			}
		}
		next += len(recs)
	})
	if next != c.n {
		t.Fatalf("blocks covered %d of %d entries", next, c.n)
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
	if dense(defaultOpts(TAR3D)).compiled().cols == nil {
		t.Fatal("the control tree compiled no columns")
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
			if l := tr.compiled(); l.cols != nil {
				t.Fatal("columns compiled")
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
	if dense(defaultOpts(TAR3D), tia.Record{Ts: 30, Te: 40, Agg: math.MaxInt64}).compiled().cols != nil {
		t.Fatal("columns compiled over a total past int64")
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
// negative aggregate; the snapshot loader refuses an image holding one, or
// a pending epoch off the grid, or a pending count that is not positive.
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

	// A pending epoch is one of the grid too: its end moved by one, or a
	// count of zero, and the image is refused.
	if err := tr.AddCheckIn(1, 2_000_005); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	pend := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 2_000_000), 2_000_010)
	for name, mutate := range map[string]func(img []byte, at int){
		"pending epoch off the grid": func(img []byte, at int) { img[at+8]-- },
		"pending count of zero":      func(img []byte, at int) { clear(img[at+32 : at+40]) },
	} {
		img := bytes.Clone(buf.Bytes())
		at := bytes.Index(img, pend)
		if at < 0 {
			t.Fatal("pending epoch not found in the image")
		}
		mutate(img, at) // start, end, then n, poi and count
		resealV3(img)
		if _, err := LoadSnapshot(bytes.NewReader(img), nil); err == nil {
			t.Errorf("%s: the image loaded", name)
		}
	}
}

// BenchmarkAggregateCols is one probe as Scorer.aggregate makes it from the
// columns, on the shape of tia's BenchmarkAggregateMem (its record-fold
// counterpart): 256 POIs of 7-day epochs over two years, each holding a
// random three quarters of them, probed round-robin with stream-shaped
// intervals (2^U{0..9} days ending inside the span). The interval's epoch
// range is mapped once per query, outside the loop, as newSearch does.
func BenchmarkAggregateCols(b *testing.B) {
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
	if l.cols == nil {
		b.Fatal("no columns compiled")
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
		sc.useCols(l.cols)
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
	colsSink = sink
}

var colsSink int64
