package seqscan

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/lbsn"
	"tartree/internal/tia"
)

func world() geo.Rect {
	return geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}}
}

func TestEmptyScanner(t *testing.T) {
	s := New(world(), tia.Contained)
	res, err := s.Query(core.Query{X: 1, Y: 1, Iq: tia.Interval{Start: 0, End: 10}, K: 3, Alpha0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results from empty scanner: %v", res)
	}
}

func TestQueryValidation(t *testing.T) {
	s := New(world(), tia.Contained)
	if _, err := s.Query(core.Query{K: 0, Alpha0: 0.5, Iq: tia.Interval{Start: 0, End: 1}}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestPaperExample(t *testing.T) {
	// Reuse the Section 3.2 example: top-1 must be f with score ≈0.058.
	s := New(geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{11, 11}}, tia.Contained)
	aggs := map[string][3]int64{
		"a": {1, 1, 0}, "b": {1, 0, 1}, "c": {2, 2, 2}, "d": {2, 0, 0},
		"e": {1, 1, 0}, "f": {3, 5, 4}, "g": {2, 3, 1}, "h": {1, 1, 0},
		"i": {2, 2, 2}, "j": {2, 0, 0}, "k": {1, 0, 1}, "l": {1, 0, 1},
	}
	pos := map[string][2]float64{
		"a": {2, 9}, "b": {4, 10}, "c": {6, 9}, "d": {1, 7},
		"e": {6, 7}, "f": {8, 5}, "g": {9, 6}, "h": {1, 4},
		"i": {9, 3}, "j": {2, 1}, "k": {4, 2}, "l": {1, 1},
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for i, name := range names {
		var hist []tia.Record
		for ep, a := range aggs[name] {
			if a > 0 {
				hist = append(hist, tia.Record{Ts: int64(ep), Te: int64(ep + 1), Agg: a})
			}
		}
		p := pos[name]
		s.Add(core.POI{ID: int64(i + 1), X: p[0], Y: p[1]}, hist)
	}
	res, err := s.Query(core.Query{X: 5, Y: 5, Iq: tia.Interval{Start: 0, End: 3}, K: 1, Alpha0: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].POI.ID != 6 {
		t.Fatalf("top-1 = %+v, want f", res)
	}
	if math.Abs(res[0].Score-0.058) > 0.002 {
		t.Errorf("score = %.4f, want ≈0.058", res[0].Score)
	}
}

// TestMatchesTARTree: the baseline and every TAR-tree variant return the
// same top-k scores on generated LBSN data.
func TestMatchesTARTree(t *testing.T) {
	d, err := lbsn.Generate(lbsn.NYC.Scaled(0.03))
	if err != nil {
		t.Fatal(err)
	}
	scan := New(d.World, tia.Contained)
	for i := range d.POIs {
		p := &d.POIs[i]
		hist := lbsn.History(p, d.Spec.Start, 7*lbsn.Day, 0)
		var total int64
		for _, r := range hist {
			total += r.Agg
		}
		if total < d.Spec.MinEffective {
			continue
		}
		scan.Add(core.POI{ID: p.ID, X: p.X, Y: p.Y}, hist)
	}
	for _, g := range []core.Grouping{core.TAR3D, core.IndSpa, core.IndAgg} {
		tr, err := d.Build(lbsn.BuildOptions{Grouping: g})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != scan.Len() {
			t.Fatalf("%v: tree has %d POIs, scanner %d", g, tr.Len(), scan.Len())
		}
		for _, q := range d.Queries(15, 10, 0.3, 42) {
			want, err := scan.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := tr.QueryCtx(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v: %d vs %d results", g, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("%v pos %d: %.9f vs %.9f", g, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// TestTopKOrderingAndTies: the scan ranks by score, ties by POI id, and a
// k that cuts through a tie keeps the smallest ids.
func TestTopKOrderingAndTies(t *testing.T) {
	s := New(world(), tia.Contained)
	add := func(id int64, x, y float64, agg int64) {
		s.Add(core.POI{ID: id, X: x, Y: y}, []tia.Record{{Ts: 0, Te: 10, Agg: agg}})
	}
	// POIs 8, 3, 6 and 1 lie 3 from the query point with equal aggregates,
	// so their scores tie exactly; they are added out of id order. POI 9 is
	// nearer with a larger aggregate, POI 2 farther with the same one.
	add(8, 53, 50, 2)
	add(3, 50, 47, 2)
	add(2, 60, 50, 2)
	add(6, 47, 50, 2)
	add(9, 51, 50, 5)
	add(1, 50, 53, 2)
	for k, want := range map[int][]int64{
		1: {9},
		3: {9, 1, 3},
		5: {9, 1, 3, 6, 8},
		6: {9, 1, 3, 6, 8, 2},
	} {
		res, err := s.Query(core.Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 10}, K: k, Alpha0: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, r := range res {
			got = append(got, r.POI.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("k=%d: ids %v, want %v", k, got, want)
		}
		for i := 2; i < min(len(res), 5); i++ {
			if res[i].Score != res[1].Score {
				t.Fatalf("k=%d rank %d: score %v does not tie rank 1's %v", k, i, res[i].Score, res[1].Score)
			}
		}
	}
}

// TestQueryCtx: the Querier entry point answers exactly as Query does, with
// zero stats, and an aborted context ends the scan with core.ErrCanceled —
// also past the first poll, on a scanner larger than one poll interval.
func TestQueryCtx(t *testing.T) {
	s := New(world(), tia.Contained)
	for i := int64(1); i <= 3*cancelPollEvery; i++ {
		s.Add(core.POI{ID: i, X: float64(i % 100), Y: float64(i % 97)},
			[]tia.Record{{Ts: 0, Te: 10, Agg: i % 13}})
	}
	var _ core.Querier = s
	q := core.Query{X: 40, Y: 60, Iq: tia.Interval{Start: 0, End: 10}, K: 7, Alpha0: 0.4}
	want, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := s.QueryCtx(context.Background(), q, &core.QueryOpts{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != q.K {
		t.Fatalf("QueryCtx returned %d results, Query %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("rank %d: QueryCtx %+v != Query %+v", i, got[i], want[i])
		}
	}
	if stats.NodeAccesses() != 0 || stats.Scored != 0 {
		t.Errorf("scan stats = %+v, want zero", stats)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.QueryCtx(ctx, q, nil); !errors.Is(err, core.ErrCanceled) {
		t.Errorf("canceled context: err = %v, want core.ErrCanceled", err)
	}
	if _, _, err := s.QueryCtx(&cancelAfter{Context: context.Background(), polls: 2}, q, nil); !errors.Is(err, core.ErrCanceled) {
		t.Errorf("context canceled mid-scan: err = %v, want core.ErrCanceled", err)
	}
}

// cancelAfter is a context whose Err turns non-nil after a number of polls.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}
