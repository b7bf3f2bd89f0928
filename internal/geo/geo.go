// Package geo provides the low-dimensional geometric primitives used by the
// TAR-tree and its grouping strategies: points, axis-aligned rectangles
// (MBRs) and the distance lower bounds needed by best-first search.
//
// The TAR-tree works in two spatial dimensions plus, for the integral 3D
// grouping strategy, one aggregate dimension. To avoid per-entry heap
// allocations, vectors are fixed-size arrays of MaxDims coordinates and a
// separate dimensionality is threaded through the callers; unused trailing
// coordinates must be zero so that equality and hashing behave.
package geo

import (
	"fmt"
	"math"
)

// MaxDims is the largest dimensionality supported. The paper uses two
// spatial dimensions and one aggregate dimension.
const MaxDims = 3

// Vector is a point in up to MaxDims dimensions. Coordinates beyond the
// dimensionality in use must be zero.
type Vector [MaxDims]float64

// Rect is an axis-aligned (hyper-)rectangle, the minimum bounding rectangle
// of the R-tree literature. A degenerate rectangle with Min == Max is a
// point and is valid.
type Rect struct {
	Min, Max Vector
}

// PointRect returns the degenerate rectangle covering exactly v.
func PointRect(v Vector) Rect { return Rect{Min: v, Max: v} }

// EmptyRect returns a rectangle that is the identity for Union: its Min is
// +Inf and its Max is -Inf in the first dims dimensions.
func EmptyRect(dims int) Rect {
	var r Rect
	for d := 0; d < dims; d++ {
		r.Min[d] = math.Inf(1)
		r.Max[d] = math.Inf(-1)
	}
	return r
}

// IsEmpty reports whether r is the identity rectangle produced by EmptyRect
// (no point has been added to it yet).
func (r Rect) IsEmpty() bool { return r.Min[0] > r.Max[0] }

// Valid reports whether Min <= Max holds in the first dims dimensions.
func (r Rect) Valid(dims int) bool {
	for d := 0; d < dims; d++ {
		if r.Min[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle containing both r and s. Union,
// OverlapArea and MaxDist use the builtin min and max, which the compiler
// inlines. They treat ±0 and NaN as math.Min and math.Max do, except for a
// NaN against an infinity: math.Max(+Inf, NaN) is +Inf, max(+Inf, NaN) is
// NaN. The tree's entry rectangles and query points hold no infinity.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	var u Rect
	for d := 0; d < MaxDims; d++ {
		u.Min[d] = min(r.Min[d], s.Min[d])
		u.Max[d] = max(r.Max[d], s.Max[d])
	}
	return u
}

// ExtendPoint returns the smallest rectangle containing r and v.
func (r Rect) ExtendPoint(v Vector) Rect { return r.Union(PointRect(v)) }

// Contains reports whether s lies entirely inside r in the first dims
// dimensions.
func (r Rect) Contains(s Rect, dims int) bool {
	for d := 0; d < dims; d++ {
		if s.Min[d] < r.Min[d] || s.Max[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether v lies inside r in the first dims
// dimensions.
func (r Rect) ContainsPoint(v Vector, dims int) bool {
	for d := 0; d < dims; d++ {
		if v[d] < r.Min[d] || v[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point in the first
// dims dimensions.
func (r Rect) Intersects(s Rect, dims int) bool {
	for d := 0; d < dims; d++ {
		if r.Min[d] > s.Max[d] || s.Min[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// Area returns the dims-dimensional volume of r. An empty rectangle has
// zero area.
func (r Rect) Area(dims int) float64 {
	if r.IsEmpty() {
		return 0
	}
	a := 1.0
	for d := 0; d < dims; d++ {
		a *= r.Max[d] - r.Min[d]
	}
	return a
}

// Margin returns the sum of the edge lengths of r in the first dims
// dimensions (the R*-tree split criterion calls this the margin).
func (r Rect) Margin(dims int) float64 {
	if r.IsEmpty() {
		return 0
	}
	m := 0.0
	for d := 0; d < dims; d++ {
		m += r.Max[d] - r.Min[d]
	}
	return m
}

// OverlapArea returns the volume of the intersection of r and s, zero when
// they are disjoint.
func (r Rect) OverlapArea(s Rect, dims int) float64 {
	a := 1.0
	for d := 0; d < dims; d++ {
		lo := max(r.Min[d], s.Min[d])
		hi := min(r.Max[d], s.Max[d])
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// Center returns the center point of r.
func (r Rect) Center() Vector {
	var c Vector
	for d := 0; d < MaxDims; d++ {
		c[d] = (r.Min[d] + r.Max[d]) / 2
	}
	return c
}

// Enlargement returns the increase in area required for r to include s.
func (r Rect) Enlargement(s Rect, dims int) float64 {
	return r.Union(s).Area(dims) - r.Area(dims)
}

// Diagonal returns the length of the main diagonal of r in the first dims
// dimensions: the maximum distance between any two points of r.
func (r Rect) Diagonal(dims int) float64 {
	if r.IsEmpty() {
		return 0
	}
	s := 0.0
	for d := 0; d < dims; d++ {
		e := r.Max[d] - r.Min[d]
		s += e * e
	}
	return math.Sqrt(s)
}

func (r Rect) String() string {
	return fmt.Sprintf("[%v..%v]", r.Min, r.Max)
}

// Dist returns the Euclidean distance between a and b in the first dims
// dimensions.
func Dist(a, b Vector, dims int) float64 {
	s := 0.0
	for d := 0; d < dims; d++ {
		e := a[d] - b[d]
		s += e * e
	}
	return math.Sqrt(s)
}

// MinDist returns the smallest Euclidean distance from point v to any point
// of rectangle r in the first dims dimensions. It is the classic R-tree
// MINDIST lower bound: zero when v lies inside r.
func MinDist(v Vector, r Rect, dims int) float64 {
	s := 0.0
	for d := 0; d < dims; d++ {
		var e float64
		switch {
		case v[d] < r.Min[d]:
			e = r.Min[d] - v[d]
		case v[d] > r.Max[d]:
			e = v[d] - r.Max[d]
		}
		s += e * e
	}
	return math.Sqrt(s)
}

// MaxDist returns the largest Euclidean distance from point v to any point
// of rectangle r in the first dims dimensions.
func MaxDist(v Vector, r Rect, dims int) float64 {
	s := 0.0
	for d := 0; d < dims; d++ {
		e := max(math.Abs(v[d]-r.Min[d]), math.Abs(v[d]-r.Max[d]))
		s += e * e
	}
	return math.Sqrt(s)
}

// Manhattan returns the L1 distance between a and b over the first dims
// dimensions. The IND-agg grouping strategy measures aggregate-distribution
// similarity with the Manhattan distance (Section 5.1 of the paper).
func Manhattan(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Abs(a[i] - b[i])
	}
	for i := n; i < len(a); i++ {
		s += math.Abs(a[i])
	}
	for i := n; i < len(b); i++ {
		s += math.Abs(b[i])
	}
	return s
}
