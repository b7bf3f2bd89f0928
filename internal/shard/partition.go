// Package shard spatially partitions the POI set across N shard processes
// and runs kNNTA as stateless scatter-gather: after the gmax exchange, one
// query request per shard.
//
// The partitioner is STR-style (the same sort-tile-recurse idea the
// parallel bulk loader uses): sort POIs by x, cut into √N columns of equal
// population, sort each column by y and cut into rows. The resulting Map
// is a tiny JSON document (split coordinates only) that datagen emits and
// every tarserve process loads; membership is *defined* by Map.Locate, so
// any two processes holding the same map agree exactly on which shard owns
// a point, ties included.
//
// Every shard indexes its POI subset over the FULL world rectangle. That
// is load-bearing for answer identity: the ranking score normalizes
// distance by the world diagonal, so shards sharing the world share the
// normalizer and per-POI scores are bit-identical to single-node scores.
package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"tartree/internal/core"
	"tartree/internal/geo"
)

// Map is a spatial partition of the world into N half-open rectangular
// cells, one per shard. It serializes to JSON (datagen -shard-map) and is
// self-consistent: Locate is the single source of truth for membership.
type Map struct {
	// N is the shard count; shard indexes are 0..N-1 in column-major
	// order (columns left to right, rows bottom to top within a column).
	N int `json:"n"`
	// World is the full dataset rectangle every shard indexes over.
	World geo.Rect `json:"world"`
	// XSplits are the column boundaries (len = columns−1), ascending. A
	// point with x == split belongs to the right column.
	XSplits []float64 `json:"x_splits"`
	// YSplits are the per-column row boundaries (len = rows(c)−1 for
	// column c), ascending. A point with y == split belongs to the upper
	// row.
	YSplits [][]float64 `json:"y_splits"`
}

// Partition builds an STR-style map over the given POIs: √N columns of
// equal population, each cut into rows of equal population. Empty cells
// are legal (a shard may own no POIs); the POI slice is not modified.
func Partition(pois []core.POI, n int, world geo.Rect) (*Map, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", n)
	}
	if world.IsEmpty() || !world.Valid(2) {
		return nil, fmt.Errorf("shard: world rectangle must be valid and non-empty")
	}
	cols := int(math.Round(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	if cols > n {
		cols = n
	}
	// Distribute n cells over the columns as evenly as possible: the first
	// n%cols columns carry one extra row.
	rows := make([]int, cols)
	for c := range rows {
		rows[c] = n / cols
		if c < n%cols {
			rows[c]++
		}
	}

	pts := append([]core.POI(nil), pois...)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].ID < pts[j].ID
	})
	m := &Map{N: n, World: world, YSplits: make([][]float64, cols)}
	// Cut columns by population; the split coordinate is the first x of
	// the next column, so the half-open [lo, hi) rule in Locate puts the
	// boundary point exactly where the sort did.
	bounds := cuts(len(pts), cols)
	for c := 0; c < cols-1; c++ {
		m.XSplits = append(m.XSplits, splitAt(len(pts), bounds[c+1], func(i int) float64 { return pts[i].X }))
	}
	for c := 0; c < cols; c++ {
		col := pts[bounds[c]:bounds[c+1]]
		sort.Slice(col, func(i, j int) bool {
			if col[i].Y != col[j].Y {
				return col[i].Y < col[j].Y
			}
			return col[i].ID < col[j].ID
		})
		rb := cuts(len(col), rows[c])
		for r := 0; r < rows[c]-1; r++ {
			m.YSplits[c] = append(m.YSplits[c], splitAt(len(col), rb[r+1], func(i int) float64 { return col[i].Y }))
		}
	}
	return m, nil
}

// cuts returns k+1 boundaries slicing n items into k near-equal runs.
func cuts(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// splitAt returns the coordinate of the item at boundary index i, which by
// the half-open rule lands that item (and everything after it) on the
// upper side. Degenerate boundaries (empty runs) reuse a neighbor's
// coordinate, yielding an unreachable zero-width cell — harmless, the
// shard just stays empty.
func splitAt(n, i int, coord func(int) float64) float64 {
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return coord(i)
}

// Validate checks structural consistency (split counts sum to N, splits
// ascending). Loaders call it after decoding a shard-map file.
func (m *Map) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("shard: map has non-positive shard count %d", m.N)
	}
	if len(m.XSplits) != len(m.YSplits)-1 {
		return fmt.Errorf("shard: map has %d x-splits for %d columns", len(m.XSplits), len(m.YSplits))
	}
	total := 0
	for _, ys := range m.YSplits {
		total += len(ys) + 1
	}
	if total != m.N {
		return fmt.Errorf("shard: map cells sum to %d, want %d", total, m.N)
	}
	if !sort.Float64sAreSorted(m.XSplits) {
		return fmt.Errorf("shard: x-splits not ascending")
	}
	for c, ys := range m.YSplits {
		if !sort.Float64sAreSorted(ys) {
			return fmt.Errorf("shard: y-splits of column %d not ascending", c)
		}
	}
	if m.World.IsEmpty() || !m.World.Valid(2) {
		return fmt.Errorf("shard: map world rectangle invalid")
	}
	return nil
}

// Locate returns the shard index owning point (x, y). Boundaries are
// half-open: a point on a split belongs to the upper/right cell. Points
// outside the world still map to the nearest edge cell, so ingest near the
// boundary never falls between shards.
func (m *Map) Locate(x, y float64) int {
	c := sort.Search(len(m.XSplits), func(i int) bool { return x < m.XSplits[i] })
	base := 0
	for i := 0; i < c; i++ {
		base += len(m.YSplits[i]) + 1
	}
	ys := m.YSplits[c]
	r := sort.Search(len(ys), func(i int) bool { return y < ys[i] })
	return base + r
}

// Region returns shard i's rectangle, with edge cells extended to the
// world bounds. Healthz reports it as the shard's key range.
func (m *Map) Region(i int) geo.Rect {
	base := 0
	for c := range m.YSplits {
		rows := len(m.YSplits[c]) + 1
		if i < base+rows {
			r := i - base
			rect := m.World
			if c > 0 {
				rect.Min[0] = m.XSplits[c-1]
			}
			if c < len(m.XSplits) {
				rect.Max[0] = m.XSplits[c]
			}
			if r > 0 {
				rect.Min[1] = m.YSplits[c][r-1]
			}
			if r < len(m.YSplits[c]) {
				rect.Max[1] = m.YSplits[c][r]
			}
			return rect
		}
		base += rows
	}
	return geo.EmptyRect(2)
}

// Save writes the map as indented JSON, the format LoadMap and datagen's
// -shard-map consumers read.
func (m *Map) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadMap reads and validates a shard-map JSON file.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("shard: map %s: %w", path, err)
	}
	return &m, nil
}
