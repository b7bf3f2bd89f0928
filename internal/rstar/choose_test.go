package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tartree/internal/geo"
)

// fullScanChoose is SpatialStrategy.ChooseSubtree's level-1 rule as it was
// before it skipped terms: every sibling pair's overlap is summed, through
// math.Max/math.Min, and the enlargement recomputes the union.
func fullScanChoose(dims int, n *Node, e Entry) int {
	union := func(r, s geo.Rect) geo.Rect {
		var u geo.Rect
		for d := 0; d < geo.MaxDims; d++ {
			u.Min[d] = math.Min(r.Min[d], s.Min[d])
			u.Max[d] = math.Max(r.Max[d], s.Max[d])
		}
		return u
	}
	overlap := func(r, s geo.Rect) float64 {
		a := 1.0
		for d := 0; d < dims; d++ {
			lo := math.Max(r.Min[d], s.Min[d])
			hi := math.Min(r.Max[d], s.Max[d])
			if hi <= lo {
				return 0
			}
			a *= hi - lo
		}
		return a
	}
	best := 0
	bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, c := range n.Entries {
		grown := union(c.Rect, e.Rect)
		var before, after float64
		for j, o := range n.Entries {
			if j == i {
				continue
			}
			before += overlap(c.Rect, o.Rect)
			after += overlap(grown, o.Rect)
		}
		dOverlap := after - before
		enl := grown.Area(dims) - c.Rect.Area(dims)
		area := c.Rect.Area(dims)
		if dOverlap < bestOverlap ||
			(dOverlap == bestOverlap && (enl < bestEnl ||
				(enl == bestEnl && area < bestArea))) {
			best, bestOverlap, bestEnl, bestArea = i, dOverlap, enl, area
		}
	}
	return best
}

// fullScanStrategy is SpatialStrategy with the full-scan leaf choice.
type fullScanStrategy struct{ SpatialStrategy }

func (s fullScanStrategy) ChooseSubtree(t *Tree, n *Node, e Entry) int {
	if n.Level == 1 {
		return fullScanChoose(t.Dims(), n, e)
	}
	return s.SpatialStrategy.ChooseSubtree(t, n, e)
}

// gridRect draws a box on a coarse grid, so that touching edges, duplicate
// boxes and zero-extent sides are common.
func gridRect(r *rand.Rand, dims int) geo.Rect {
	var b geo.Rect
	for d := 0; d < dims; d++ {
		b.Min[d] = float64(r.Intn(8))
		b.Max[d] = b.Min[d] + float64(r.Intn(4))
	}
	return b
}

// probeEntry draws the entry to insert: a point inside a child, a corner of
// one, a copy of one, or a fresh grid box or point.
func probeEntry(r *rand.Rand, dims int, n *Node) geo.Rect {
	c := n.Entries[r.Intn(len(n.Entries))].Rect
	var v geo.Vector
	switch r.Intn(5) {
	case 0: // strictly or weakly inside c
		for d := 0; d < dims; d++ {
			v[d] = c.Min[d] + r.Float64()*(c.Max[d]-c.Min[d])
		}
		return geo.PointRect(v)
	case 1: // a corner of c, touching its siblings' edges
		for d := 0; d < dims; d++ {
			v[d] = c.Min[d]
			if r.Intn(2) == 0 {
				v[d] = c.Max[d]
			}
		}
		return geo.PointRect(v)
	case 2:
		return c
	case 3:
		for d := 0; d < dims; d++ {
			v[d] = r.Float64() * 12
		}
		return geo.PointRect(v)
	default:
		return gridRect(r, dims)
	}
}

// TestChooseSubtreeMatchesFullScan checks that skipping the overlap terms
// that cannot change the sums picks the child the full M² scan picks, on
// random level-1 nodes in 2D and 3D up to a full node, and that a tree built
// with either rule is the same tree.
func TestChooseSubtreeMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, dims := range []int{2, 3} {
		tr := New(Config{Dims: dims, Capacity: 36})
		for trial := 0; trial < 4000; trial++ {
			size := 1 + r.Intn(tr.Capacity())
			if trial%10 == 0 {
				size = tr.Capacity() // a full node
			}
			n := &Node{Level: 1, Entries: make([]Entry, size)}
			for i := range n.Entries {
				n.Entries[i].Rect = gridRect(r, dims)
			}
			e := Entry{Rect: probeEntry(r, dims, n)}
			if got, want := tr.strategy.ChooseSubtree(tr, n, e), fullScanChoose(dims, n, e); got != want {
				t.Fatalf("%dD trial %d: chose %d, full scan %d (entry %v)", dims, trial, got, want, e.Rect)
			}
		}

		// The same inserts through either rule build the same tree.
		fast := New(Config{Dims: dims, Capacity: 12})
		full := New(Config{Dims: dims, Capacity: 12, Strategy: fullScanStrategy{}})
		for i := 0; i < 3000; i++ {
			var v geo.Vector
			for d := 0; d < dims; d++ {
				v[d] = math.Round(r.NormFloat64()*20) / 4
			}
			e := Entry{Rect: geo.PointRect(v), Item: Item(i)}
			if err := fast.Insert(e); err != nil {
				t.Fatal(err)
			}
			if err := full.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := treeString(fast.Root()), treeString(full.Root()); a != b {
			t.Fatalf("%dD: trees differ", dims)
		}
	}

	// Nodes the draws above make rarely or never, each checked against the
	// full scan at every size up to its capacity.
	for _, c := range []struct {
		name     string
		capacity int
		node     func(r *rand.Rand, dims, size int) (*Node, Entry)
	}{
		// A 4 KiB node: more children than a 64-bit set could mark.
		{"wide", 150, func(r *rand.Rand, dims, size int) (*Node, Entry) {
			n := gridNode(r, dims, size, gridRect)
			return n, Entry{Rect: probeEntry(r, dims, n)}
		}},
		// No child holds e, so every child grows and none may stop early
		// for lying around e.
		{"all-grow", 40, func(r *rand.Rand, dims, size int) (*Node, Entry) {
			n := gridNode(r, dims, size, gridRect)
			for {
				var v geo.Vector
				for d := 0; d < dims; d++ {
					v[d] = float64(r.Intn(23)) / 2
				}
				e := geo.PointRect(v)
				inside := false
				for i := range n.Entries {
					inside = inside || n.Entries[i].Rect.Union(e) == n.Entries[i].Rect
				}
				if !inside {
					return n, Entry{Rect: e}
				}
			}
		}},
		// Unit boxes on an integer grid probed at half-integer points:
		// children at different indexes tie exactly on enlargement and
		// area, and copies tie on the overlap growth too.
		{"ties", 40, func(r *rand.Rand, dims, size int) (*Node, Entry) {
			n := gridNode(r, dims, size, func(r *rand.Rand, dims int) geo.Rect {
				var b geo.Rect
				for d := 0; d < dims; d++ {
					b.Min[d] = float64(r.Intn(4))
					b.Max[d] = b.Min[d] + 1
				}
				return b
			})
			var v geo.Vector
			for d := 0; d < dims; d++ {
				v[d] = float64(r.Intn(5)) + 0.5
			}
			return n, Entry{Rect: geo.PointRect(v)}
		}},
		// Children flat in one dimension and a probe in their plane: the
		// child grows (grown != c) while its area, and so its
		// enlargement, stays 0.
		{"zero-area", 40, func(r *rand.Rand, dims, size int) (*Node, Entry) {
			flat := r.Intn(dims)
			level := float64(r.Intn(3))
			n := gridNode(r, dims, size, func(r *rand.Rand, dims int) geo.Rect {
				b := gridRect(r, dims)
				if r.Intn(4) != 0 {
					b.Min[flat], b.Max[flat] = level, level
				}
				return b
			})
			e := Entry{Rect: probeEntry(r, dims, n)}
			e.Rect.Min[flat], e.Rect.Max[flat] = level, level
			return n, e
		}},
	} {
		r := rand.New(rand.NewSource(7))
		for _, dims := range []int{2, 3} {
			tr := New(Config{Dims: dims, Capacity: c.capacity})
			for trial := 0; trial < 600; trial++ {
				n, e := c.node(r, dims, 1+trial%c.capacity)
				if got, want := tr.strategy.ChooseSubtree(tr, n, e), fullScanChoose(dims, n, e); got != want {
					t.Fatalf("%s %dD trial %d (%d children): chose %d, full scan %d (entry %v)", c.name, dims, trial, len(n.Entries), got, want, e.Rect)
				}
			}
		}
	}
}

// gridNode returns a level-1 node of size children drawn by rect; a third
// of them repeat an earlier child.
func gridNode(r *rand.Rand, dims, size int, rect func(*rand.Rand, int) geo.Rect) *Node {
	n := &Node{Level: 1, Entries: make([]Entry, size)}
	for i := range n.Entries {
		if i > 0 && r.Intn(3) == 0 {
			n.Entries[i].Rect = n.Entries[r.Intn(i)].Rect
		} else {
			n.Entries[i].Rect = rect(r, dims)
		}
	}
	return n
}

// treeString renders every node's level, rectangles and items in order.
func treeString(n *Node) string {
	s := fmt.Sprintf("(%d", n.Level)
	for _, e := range n.Entries {
		s += fmt.Sprintf(" %v#%d", e.Rect, e.Item)
		if e.Child != nil {
			s += treeString(e.Child)
		}
	}
	return s + ")"
}

var chosen int

// BenchmarkChooseSubtree times the leaf-level choice on the level-1 nodes of
// a tree of clustered points, for new points drawn from the same clusters.
func BenchmarkChooseSubtree(b *testing.B) {
	for _, c := range []struct{ dims, capacity int }{{2, 50}, {3, 36}} {
		b.Run(fmt.Sprintf("%dd", c.dims), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			point := func() Entry {
				var v geo.Vector
				k := float64(r.Intn(20))
				for d := 0; d < c.dims; d++ {
					v[d] = k*5 + r.NormFloat64()
				}
				return Entry{Rect: geo.PointRect(v)}
			}
			tr := New(Config{Dims: c.dims, Capacity: c.capacity})
			for i := 0; i < 20000; i++ {
				e := point()
				e.Item = Item(i)
				if err := tr.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			var nodes []*Node
			tr.VisitNodes(func(n *Node) bool {
				if n.Level == 1 {
					nodes = append(nodes, n)
				}
				return true
			})
			probes := make([]Entry, 1024)
			for i := range probes {
				probes[i] = point()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chosen = tr.strategy.ChooseSubtree(tr, nodes[i%len(nodes)], probes[i%len(probes)])
			}
		})
	}
}
