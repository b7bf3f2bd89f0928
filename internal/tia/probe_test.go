package tia

import (
	"math/rand"
	"testing"
)

const day = 86400

// benchTIAs builds n bulk-loaded TIAs of 7-day epochs over a two-year span
// on f, each with a random subset of the epochs (as a POI's history has),
// and a set of stream-shaped intervals: length 2^U{0..9} days ending
// uniformly inside the span (the query shape of the paper's §8 and of the
// benchmark's request stream).
func benchTIAs(tb testing.TB, f Factory, n int) ([]*Index, []Interval) {
	const epochs = 104
	rng := rand.New(rand.NewSource(1))
	idx := make([]*Index, n)
	for i := range idx {
		var recs []Record
		for e := int64(0); e < epochs; e++ {
			if rng.Intn(4) > 0 {
				recs = append(recs, Record{Ts: e * 7 * day, Te: (e + 1) * 7 * day, Agg: 1 + rng.Int63n(50)})
			}
		}
		x, err := f.New(recs)
		if err != nil {
			tb.Fatal(err)
		}
		idx[i] = x
	}
	ivs := make([]Interval, 1024)
	for i := range ivs {
		end := 1 + rng.Int63n(epochs*7*day)
		ivs[i] = Interval{Start: end - day<<uint(rng.Intn(10)), End: end}
	}
	return idx, ivs
}

// BenchmarkAggregateMem and BenchmarkAggregateBTree are the per-layer
// number for one TIA probe, on the default backend and on the paper's: 256
// TIAs (the B+-trees on resident pages), probed round-robin with
// stream-shaped intervals, exactly as Scorer.aggregate calls it.
func BenchmarkAggregateMem(b *testing.B)   { benchAggregate(b, NewMemFactory()) }
func BenchmarkAggregateBTree(b *testing.B) { benchAggregate(b, NewBTreeFactory(1024, 10)) }

func benchAggregate(b *testing.B, f Factory) {
	idx, ivs := benchTIAs(b, f, 256)
	for i := range idx { // fault every page in
		if _, err := idx[i].Aggregate(Interval{Start: 0, End: 1 << 40}, Contained, FuncSum); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		a, err := idx[i%len(idx)].Aggregate(ivs[i%len(ivs)], Contained, FuncSum)
		if err != nil {
			b.Fatal(err)
		}
		sink += a
	}
	benchSink = sink
}

var benchSink int64

// TestAggregateAllocatesNothing pins the probe path from Aggregate
// down to the page bytes: on resident pages one probe allocates nothing,
// whatever the tree height, semantics or fold.
func TestAggregateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	idx, ivs := benchTIAs(t, NewBTreeFactory(1024, 10), 8)
	// One TIA tall enough for an inner level above a leaf chain.
	recs := make([]Record, 500)
	for i := range recs {
		recs[i] = Record{Ts: int64(i) * day, Te: int64(i+1) * day, Agg: int64(i%9) + 1}
	}
	tall, err := NewBTreeFactory(1024, 10).New(recs)
	if err != nil {
		t.Fatal(err)
	}
	if h := tall.pages.bt.Height(); h < 2 {
		t.Fatalf("height %d, want an inner level", h)
	}
	idx = append(idx, tall)
	whole := Interval{Start: 0, End: 1 << 40}
	for _, x := range idx { // fault every page in
		if _, err := x.Aggregate(whole, Contained, FuncSum); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		x, iv := idx[i%len(idx)], ivs[i%len(ivs)]
		if i%7 == 0 {
			iv = whole
		}
		if _, err := x.Aggregate(iv, Semantics(i%2), Func(i/2%2)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Aggregate allocates %.1f objects per probe, want 0", allocs)
	}
}

// BenchmarkMaxMerge is one internal entry's rebuild: the per-epoch maxima
// of a node's 36 children, merged into an empty in-memory index.
func BenchmarkMaxMerge(b *testing.B) {
	children, _ := benchTIAs(b, NewMemFactory(), 36)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dst Index
		for _, c := range children {
			if err := dst.MaxMerge(c.Records()); err != nil {
				b.Fatal(err)
			}
		}
		benchSink += int64(len(dst.recs))
	}
}
