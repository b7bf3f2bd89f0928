package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tartree/internal/geo"
)

// quadraticSplit is SpatialStrategy.Split as it was before it swept each
// sort order once: every candidate's two MBRs are unioned afresh, O(M²)
// an order, and a better candidate copies its two groups.
func quadraticSplit(t *Tree, entries []Entry) ([]Entry, []Entry) {
	dims := t.cfg.Dims
	m := t.minFill
	n := len(entries)
	mbrOf := func(entries []Entry) geo.Rect {
		r := geo.EmptyRect(dims)
		for _, e := range entries {
			r = r.Union(e.Rect)
		}
		return r
	}

	bestAxis, bestMargin := 0, math.Inf(1)
	orders := make([][]Entry, dims*2)
	for axis := 0; axis < dims; axis++ {
		byMin := append([]Entry(nil), entries...)
		a := axis
		sort.Slice(byMin, func(i, j int) bool {
			if byMin[i].Rect.Min[a] != byMin[j].Rect.Min[a] {
				return byMin[i].Rect.Min[a] < byMin[j].Rect.Min[a]
			}
			return byMin[i].Rect.Max[a] < byMin[j].Rect.Max[a]
		})
		byMax := append([]Entry(nil), entries...)
		sort.Slice(byMax, func(i, j int) bool {
			if byMax[i].Rect.Max[a] != byMax[j].Rect.Max[a] {
				return byMax[i].Rect.Max[a] < byMax[j].Rect.Max[a]
			}
			return byMax[i].Rect.Min[a] < byMax[j].Rect.Min[a]
		})
		orders[axis*2], orders[axis*2+1] = byMin, byMax
		margin := 0.0
		for _, ord := range [][]Entry{byMin, byMax} {
			for k := m; k <= n-m; k++ {
				margin += mbrOf(ord[:k]).Margin(dims) + mbrOf(ord[k:]).Margin(dims)
			}
		}
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	var bestL, bestR []Entry
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for _, ord := range [][]Entry{orders[bestAxis*2], orders[bestAxis*2+1]} {
		for k := m; k <= n-m; k++ {
			lm, rm := mbrOf(ord[:k]), mbrOf(ord[k:])
			ov := lm.OverlapArea(rm, dims)
			area := lm.Area(dims) + rm.Area(dims)
			if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = ov, area
				bestL = append([]Entry(nil), ord[:k]...)
				bestR = append([]Entry(nil), ord[k:]...)
			}
		}
	}
	return bestL, bestR
}

// quadraticStrategy is SpatialStrategy with the quadratic split.
type quadraticStrategy struct{ SpatialStrategy }

func (quadraticStrategy) Split(t *Tree, _ int, entries []Entry) ([]Entry, []Entry) {
	return quadraticSplit(t, entries)
}

// sameEntries reports whether a and b hold the same entries in the same
// order, compared by rectangle and item.
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rect != b[i].Rect || a[i].Item != b[i].Item {
			return false
		}
	}
	return true
}

// TestSplitMatchesQuadratic checks that the swept split returns the groups
// the quadratic split returns, in the same order, on random overfull nodes
// (M+1 entries) in 2D and 3D: grid boxes with duplicate coordinates and
// repeated boxes, children flat in one dimension (zero area), and cubes on
// the diagonal, whose axes tie on the margin. A tree built with either
// split is the same tree.
func TestSplitMatchesQuadratic(t *testing.T) {
	shapes := []struct {
		name string
		rect func(r *rand.Rand, dims int) geo.Rect
	}{
		{"grid", gridRect},
		{"zero-area", func(r *rand.Rand, dims int) geo.Rect {
			b := gridRect(r, dims)
			if r.Intn(4) != 0 {
				b.Max[dims-1] = b.Min[dims-1]
			}
			return b
		}},
		{"diagonal", func(r *rand.Rand, dims int) geo.Rect {
			var b geo.Rect
			lo, side := float64(r.Intn(8)), float64(r.Intn(3))
			for d := 0; d < dims; d++ {
				b.Min[d], b.Max[d] = lo, lo+side
			}
			return b
		}},
		{"points", func(r *rand.Rand, dims int) geo.Rect {
			var v geo.Vector
			for d := 0; d < dims; d++ {
				v[d] = math.Round(r.NormFloat64()*8) / 2
			}
			return geo.PointRect(v)
		}},
	}
	r := rand.New(rand.NewSource(11))
	for _, sh := range shapes {
		for _, dims := range []int{2, 3} {
			for _, capacity := range []int{4, 12, 36, 50} {
				tr := New(Config{Dims: dims, Capacity: capacity})
				for trial := 0; trial < 300; trial++ {
					n := gridNode(r, dims, capacity+1, sh.rect)
					for i := range n.Entries {
						n.Entries[i].Item = Item(i)
					}
					gotL, gotR := tr.strategy.Split(tr, 0, n.Entries)
					wantL, wantR := quadraticSplit(tr, n.Entries)
					if !sameEntries(gotL, wantL) || !sameEntries(gotR, wantR) {
						t.Fatalf("%s %dD capacity %d trial %d: split %d/%d, quadratic %d/%d",
							sh.name, dims, capacity, trial, len(gotL), len(gotR), len(wantL), len(wantR))
					}
				}
			}
			swept := New(Config{Dims: dims, Capacity: 12})
			quad := New(Config{Dims: dims, Capacity: 12, Strategy: quadraticStrategy{}})
			for i := 0; i < 3000; i++ {
				e := Entry{Rect: sh.rect(r, dims), Item: Item(i)}
				if err := swept.Insert(e); err != nil {
					t.Fatal(err)
				}
				if err := quad.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			if a, b := treeString(swept.Root()), treeString(quad.Root()); a != b {
				t.Fatalf("%s %dD: trees differ", sh.name, dims)
			}
		}
	}
}

var splitSink []Entry

// BenchmarkSplit times the split of one full node (M+1 entries) of
// clustered points: capacity 50 in 2D and 36 in 3D, the paper's 1 KiB node.
func BenchmarkSplit(b *testing.B) {
	for _, c := range []struct{ dims, capacity int }{{2, 50}, {3, 36}} {
		b.Run(fmt.Sprintf("%dd", c.dims), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			tr := New(Config{Dims: c.dims, Capacity: c.capacity})
			nodes := make([][]Entry, 64)
			for i := range nodes {
				nodes[i] = make([]Entry, c.capacity+1)
				for j := range nodes[i] {
					var v geo.Vector
					k := float64(r.Intn(4))
					for d := 0; d < c.dims; d++ {
						v[d] = k*5 + r.NormFloat64()
					}
					nodes[i][j] = Entry{Rect: geo.PointRect(v), Item: Item(j)}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				splitSink, _ = tr.strategy.Split(tr, 0, nodes[i%len(nodes)])
			}
		})
	}
}
