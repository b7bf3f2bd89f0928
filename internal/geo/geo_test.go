package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointRect(t *testing.T) {
	v := Vector{1, 2, 3}
	r := PointRect(v)
	if r.Min != v || r.Max != v {
		t.Fatalf("PointRect(%v) = %v", v, r)
	}
	if got := r.Area(3); got != 0 {
		t.Errorf("point rect area = %v, want 0", got)
	}
	if !r.ContainsPoint(v, 3) {
		t.Errorf("point rect does not contain its own point")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect(2)
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area(2) != 0 || e.Margin(2) != 0 || e.Diagonal(2) != 0 {
		t.Error("empty rect should have zero measures")
	}
	r := Rect{Min: Vector{0, 0}, Max: Vector{2, 3}}
	if got := e.Union(r); got != r {
		t.Errorf("empty ∪ r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r ∪ empty = %v, want %v", got, r)
	}
}

func TestUnionContains(t *testing.T) {
	a := Rect{Min: Vector{0, 0}, Max: Vector{1, 1}}
	b := Rect{Min: Vector{2, -1}, Max: Vector{3, 0.5}}
	u := a.Union(b)
	want := Rect{Min: Vector{0, -1}, Max: Vector{3, 1}}
	if u != want {
		t.Fatalf("union = %v, want %v", u, want)
	}
	if !u.Contains(a, 2) || !u.Contains(b, 2) {
		t.Error("union must contain operands")
	}
	if a.Contains(u, 2) {
		t.Error("operand should not contain strict union")
	}
}

func TestIntersects(t *testing.T) {
	a := Rect{Min: Vector{0, 0}, Max: Vector{2, 2}}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{Min: Vector{1, 1}, Max: Vector{3, 3}}, true},
		{Rect{Min: Vector{2, 2}, Max: Vector{3, 3}}, true}, // touching corner
		{Rect{Min: Vector{3, 0}, Max: Vector{4, 1}}, false},
		{Rect{Min: Vector{0.5, 0.5}, Max: Vector{1, 1}}, true}, // contained
		{Rect{Min: Vector{-2, -2}, Max: Vector{-1, -1}}, false},
	}
	for i, c := range cases {
		if got := a.Intersects(c.b, 2); got != c.want {
			t.Errorf("case %d: Intersects=%v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(a, 2); got != c.want {
			t.Errorf("case %d (sym): Intersects=%v, want %v", i, got, c.want)
		}
	}
}

func TestAreaMarginOverlap(t *testing.T) {
	a := Rect{Min: Vector{0, 0}, Max: Vector{4, 2}}
	if got := a.Area(2); !almostEq(got, 8) {
		t.Errorf("area = %v, want 8", got)
	}
	if got := a.Margin(2); !almostEq(got, 6) {
		t.Errorf("margin = %v, want 6", got)
	}
	b := Rect{Min: Vector{3, 1}, Max: Vector{5, 5}}
	if got := a.OverlapArea(b, 2); !almostEq(got, 1) {
		t.Errorf("overlap = %v, want 1", got)
	}
	if got := a.OverlapArea(Rect{Min: Vector{9, 9}, Max: Vector{10, 10}}, 2); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
	if got := a.Enlargement(b, 2); !almostEq(got, 5*5-8) {
		t.Errorf("enlargement = %v, want %v", got, 25-8)
	}
}

func TestDiagonal3D(t *testing.T) {
	r := Rect{Min: Vector{0, 0, 0}, Max: Vector{1, 2, 2}}
	if got := r.Diagonal(3); !almostEq(got, 3) {
		t.Errorf("diag = %v, want 3", got)
	}
	if got := r.Diagonal(2); !almostEq(got, math.Sqrt(5)) {
		t.Errorf("2d diag = %v, want sqrt(5)", got)
	}
}

func TestMinMaxDist(t *testing.T) {
	r := Rect{Min: Vector{1, 1}, Max: Vector{3, 3}}
	// Point inside.
	if got := MinDist(Vector{2, 2}, r, 2); got != 0 {
		t.Errorf("inside mindist = %v, want 0", got)
	}
	// Point left of the rect: distance along x only.
	if got := MinDist(Vector{0, 2}, r, 2); !almostEq(got, 1) {
		t.Errorf("mindist = %v, want 1", got)
	}
	// Corner case.
	if got := MinDist(Vector{0, 0}, r, 2); !almostEq(got, math.Sqrt(2)) {
		t.Errorf("corner mindist = %v, want sqrt2", got)
	}
	if got := MaxDist(Vector{0, 0}, r, 2); !almostEq(got, math.Sqrt(18)) {
		t.Errorf("maxdist = %v, want sqrt18", got)
	}
}

func TestManhattan(t *testing.T) {
	if got := Manhattan([]float64{1, 2, 3}, []float64{2, 0, 3}); !almostEq(got, 3) {
		t.Errorf("manhattan = %v, want 3", got)
	}
	// Unequal lengths: missing entries are zeros.
	if got := Manhattan([]float64{1, 2}, []float64{1, 2, 5}); !almostEq(got, 5) {
		t.Errorf("manhattan uneven = %v, want 5", got)
	}
	if got := Manhattan([]float64{1, 2, 5}, []float64{1, 2}); !almostEq(got, 5) {
		t.Errorf("manhattan uneven (sym) = %v, want 5", got)
	}
	// Paper example (Table 1): distance between TIA of c and TIA of g is 2,
	// between c and l is 4.
	c := []float64{2, 2, 2}
	g := []float64{2, 3, 1}
	l := []float64{1, 0, 1}
	if got := Manhattan(c, g); got != 2 {
		t.Errorf("d(c,g) = %v, want 2", got)
	}
	if got := Manhattan(c, l); got != 4 {
		t.Errorf("d(c,l) = %v, want 4", got)
	}
}

func randVec(r *rand.Rand, dims int) Vector {
	var v Vector
	for d := 0; d < dims; d++ {
		v[d] = r.Float64()*20 - 10
	}
	return v
}

func randRect(r *rand.Rand, dims int) Rect {
	a, b := randVec(r, dims), randVec(r, dims)
	rect := PointRect(a).ExtendPoint(b)
	return rect
}

// Property: MinDist is a lower bound of the distance to every contained
// point, and MaxDist an upper bound.
func TestMinMaxDistBounds(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		dims := 2 + r.Intn(2)
		rect := randRect(r, dims)
		q := randVec(r, dims)
		// Sample a point inside the rect.
		var p Vector
		for d := 0; d < dims; d++ {
			p[d] = rect.Min[d] + r.Float64()*(rect.Max[d]-rect.Min[d])
		}
		dist := Dist(q, p, dims)
		return MinDist(q, rect, dims) <= dist+1e-9 && dist <= MaxDist(q, rect, dims)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: union is commutative, associative and monotone in area.
func TestUnionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		a, b, c := randRect(r, 3), randRect(r, 3), randRect(r, 3)
		if a.Union(b) != b.Union(a) {
			return false
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			return false
		}
		u := a.Union(b)
		return u.Area(3) >= a.Area(3)-1e-12 && u.Area(3) >= b.Area(3)-1e-12 &&
			u.Contains(a, 3) && u.Contains(b, 3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: OverlapArea is symmetric and bounded by min area.
func TestOverlapProperties(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		a, b := randRect(r, 2), randRect(r, 2)
		oa, ob := a.OverlapArea(b, 2), b.OverlapArea(a, 2)
		if !almostEq(oa, ob) {
			return false
		}
		return oa <= math.Min(a.Area(2), b.Area(2))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValid(t *testing.T) {
	if !(Rect{Min: Vector{0, 0}, Max: Vector{1, 1}}).Valid(2) {
		t.Error("valid rect reported invalid")
	}
	if (Rect{Min: Vector{2, 0}, Max: Vector{1, 1}}).Valid(2) {
		t.Error("invalid rect reported valid")
	}
}

func TestCenter(t *testing.T) {
	r := Rect{Min: Vector{0, 2, 4}, Max: Vector{2, 4, 8}}
	if got := r.Center(); got != (Vector{1, 3, 6}) {
		t.Errorf("center = %v", got)
	}
}

func TestString(t *testing.T) {
	r := Rect{Min: Vector{0, 0}, Max: Vector{1, 1}}
	if r.String() == "" {
		t.Error("empty string")
	}
}

// TestBuiltinMinMaxMatchMath checks that Union, OverlapArea and MaxDist,
// which use the builtin min and max, return what the math.Min and math.Max
// forms return on ±0, on NaN and on ±Inf coordinates (any NaN counts as
// equal to any other). The one input on which they differ, a NaN against an
// infinity, is left out: math.Max(+Inf, NaN) is +Inf, max(+Inf, NaN) NaN.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }
	sameRect := func(a, b Rect) bool {
		for d := 0; d < MaxDims; d++ {
			if !same(a.Min[d], b.Min[d]) || !same(a.Max[d], b.Max[d]) {
				return false
			}
		}
		return true
	}
	negZero := math.Copysign(0, -1)
	for _, set := range []struct {
		special []float64
		points  bool // MaxDist from an infinite point takes Inf-Inf: a NaN against an infinity
	}{
		{[]float64{math.NaN(), negZero, 0, 1, -2}, true},
		{[]float64{math.Inf(1), math.Inf(-1), negZero, 0, 1, -2}, false},
	} {
		special := set.special
		for _, a := range special {
			for _, b := range special {
				for _, c := range special {
					r := Rect{Min: Vector{a, b, 0}, Max: Vector{c, c, 1}}
					s := Rect{Min: Vector{b, c, 0}, Max: Vector{a, a, 1}}
					var u Rect
					area, dist := 1.0, 0.0
					for d := 0; d < MaxDims; d++ {
						u.Min[d] = math.Min(r.Min[d], s.Min[d])
						u.Max[d] = math.Max(r.Max[d], s.Max[d])
					}
					for d := 0; d < 2; d++ {
						if lo, hi := math.Max(r.Min[d], s.Min[d]), math.Min(r.Max[d], s.Max[d]); hi <= lo {
							area = 0
							break
						} else {
							area *= hi - lo
						}
					}
					for d := 0; d < 2; d++ {
						e := math.Max(math.Abs(s.Min[d]-r.Min[d]), math.Abs(s.Min[d]-r.Max[d]))
						dist += e * e
					}
					if !r.IsEmpty() && !s.IsEmpty() && !sameRect(r.Union(s), u) {
						t.Errorf("%v ∪ %v = %v, want %v", r, s, r.Union(s), u)
					}
					if got := r.OverlapArea(s, 2); !same(got, area) {
						t.Errorf("overlap(%v, %v) = %v, want %v", r, s, got, area)
					}
					if got, want := MaxDist(s.Min, r, 2), math.Sqrt(dist); set.points && !same(got, want) {
						t.Errorf("maxdist(%v, %v) = %v, want %v", s.Min, r, got, want)
					}
				}
			}
		}
	}
}
