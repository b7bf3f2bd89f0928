// Package core implements the TAR-tree (temporal aggregate R-tree) and the
// k-nearest neighbor temporal aggregate (kNNTA) query of the paper.
//
// A kNNTA query (q, Iq, α0, k) returns the k POIs minimizing
//
//	f(p) = α0·d(p, q) + α1·(1 − g(p, Iq)),   α1 = 1 − α0,
//
// where d is the Euclidean distance to the query point normalized by the
// diameter of the data space, and g is the temporal aggregate (count of
// check-ins) over the query interval normalized by its per-query upper
// bound. The TAR-tree is an R-tree whose every entry additionally points to
// a temporal index on the aggregate (TIA); query processing is best-first
// search with the consistent lower bound of Property 1.
//
// The package supports the paper's three entry-grouping strategies
// (Section 5): the integral 3D strategy (the TAR-tree proper), grouping by
// spatial extents only (IND-spa), and grouping by aggregate-distribution
// similarity (IND-agg).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// Grouping selects the entry-grouping strategy.
type Grouping int

const (
	// TAR3D is the paper's integral 3D strategy: entries are grouped as
	// 3-dimensional boxes of two normalized spatial dimensions and one
	// aggregate dimension z = 1 − λ̂/λ̂max.
	TAR3D Grouping = iota
	// IndSpa groups by spatial extents only (a plain 2D R*-tree).
	IndSpa
	// IndAgg groups by aggregate-distribution similarity (Manhattan
	// distance between per-epoch aggregate vectors).
	IndAgg
)

// String implements fmt.Stringer.
func (g Grouping) String() string {
	switch g {
	case TAR3D:
		return "TAR-tree"
	case IndSpa:
		return "IND-spa"
	case IndAgg:
		return "IND-agg"
	}
	return fmt.Sprintf("Grouping(%d)", int(g))
}

// Dims returns the index dimensionality implied by the grouping.
func (g Grouping) Dims() int {
	if g == TAR3D {
		return 3
	}
	return 2
}

// nodeHeaderBytes and coordinate/pointer sizes reproduce the paper's node
// capacities: a 1024-byte node holds 50 two-dimensional or 36
// three-dimensional entries (Section 8, experiments setup).
const (
	nodeHeaderBytes = 16
	coordBytes      = 4
	pointerBytes    = 4
)

// CapacityFor returns the entry capacity of a node of nodeSize bytes
// holding dims-dimensional entries.
func CapacityFor(nodeSize, dims int) int {
	entry := 2*dims*coordBytes + pointerBytes
	c := (nodeSize - nodeHeaderBytes) / entry
	if c < 4 {
		c = 4
	}
	return c
}

// Options configures a TAR-tree.
type Options struct {
	// World is the 2D bounding rectangle of the data space. The ranking
	// function normalizes spatial distances by its diagonal — the paper's
	// "maximum distance between any two points in the space".
	World geo.Rect
	// NodeSize is the R-tree node size in bytes (default 1024).
	NodeSize int
	// Grouping selects the entry-grouping strategy (default TAR3D).
	Grouping Grouping
	// TIA creates the temporal indexes, one per entry; nil selects
	// tia.NewMemFactory(): an entry's index is its records in a sorted
	// in-memory slice that ingest, grouping, snapshots and queries all read,
	// and a probe touches no page — TIAAccesses, TIAPhysical and the
	// pagestore series read 0. Name tia.NewBTreeFactory(NodeSize, 10), the
	// paper's setup of Section 4.1, where page accesses are the unit being
	// measured: its indexes hold the records on pages too, and a probe
	// reads those.
	TIA tia.Factory
	// Semantics matches TIA records against query intervals (default
	// Contained, per Section 4.3).
	Semantics tia.Semantics
	// AggFunc combines the matched epochs' values into g(p, Iq): the
	// default FuncSum counts check-ins; FuncMax ranks by the busiest single
	// epoch. Section 3.1 lists both as supported aggregates. (Max remains
	// consistent with Property 1 because an internal TIA's per-epoch maxima
	// dominate every child's epochs.)
	AggFunc tia.Func
	// EpochStart (t0) and EpochLength discretize time into a uniform grid
	// (Section 3.1). For non-uniform grids set Epochs instead.
	EpochStart  int64
	EpochLength int64
	// Epochs overrides the uniform grid with an arbitrary discretization
	// (e.g. GeometricEpochs). When set, EpochStart/EpochLength are ignored.
	Epochs Epochs
	// DisableReinsert turns off the R*-tree forced reinsertion; the
	// ablation experiments use it to isolate that heuristic's effect.
	DisableReinsert bool
	// Metrics, when set, instruments the tree: queries publish latency
	// histograms and work counters into the registry, and the registry's
	// tartree_pagestore_* series read the TIA factory's page-traffic
	// ledger at scrape time. Nil (the default) disables instrumentation
	// entirely. Trees may share one registry; the pagestore series then
	// show the factory of the tree created last.
	Metrics *obs.Registry
	// Cache, when set, memoizes whole ranked result sets across queries.
	// The tree bumps the cache's version stamp on every change to what a
	// query reads (epoch flushes, POI insertion/deletion, rebuilds; a
	// buffered check-in is not read until its epoch is flushed), so cached
	// answers are always identical to recomputed ones. A cache may be
	// shared by several trees — keys embed the tree's identity — but then
	// every sharing tree invalidates it. Nil disables caching.
	Cache *aggcache.Cache
}

func (o *Options) fill() error {
	if o.World.IsEmpty() || !o.World.Valid(2) {
		return errors.New("core: Options.World must be a valid non-empty rectangle")
	}
	if o.NodeSize == 0 {
		o.NodeSize = 1024
	}
	if o.NodeSize < 256 {
		return fmt.Errorf("core: node size %d too small", o.NodeSize)
	}
	if o.Epochs == nil {
		if o.EpochLength <= 0 {
			return errors.New("core: EpochLength must be positive")
		}
		o.Epochs = FixedEpochs{Start: o.EpochStart, Length: o.EpochLength}
	}
	if err := validateEpochs(o.Epochs); err != nil {
		return err
	}
	if o.TIA == nil {
		o.TIA = tia.NewMemFactory()
	}
	return nil
}

// POI describes a point of interest.
type POI struct {
	ID   int64
	X, Y float64
}

// Result is one kNNTA answer.
type Result struct {
	POI   POI
	Score float64
	// S0 is the normalized spatial distance d(p, q); S1 is 1 − g(p, Iq).
	// Score = α0·S0 + α1·S1. The weight-adjustment algorithm of Section 7.1
	// works directly on these components.
	S0, S1 float64
	// Agg is the raw (unnormalized) aggregate over the query interval.
	Agg int64
}

// Query is a kNNTA query.
type Query struct {
	X, Y   float64      // query point in world coordinates
	Iq     tia.Interval // query time interval
	K      int
	Alpha0 float64 // weight of the spatial distance; α1 = 1 − Alpha0
}

// Validate reports whether the query parameters are usable. Failures wrap
// ErrInvalid, so errors.Is(err, ErrInvalid) identifies bad input.
func (q Query) Validate() error {
	if q.K <= 0 {
		return fmt.Errorf("%w: k must be positive", ErrInvalid)
	}
	if math.IsNaN(q.X) || math.IsInf(q.X, 0) || math.IsNaN(q.Y) || math.IsInf(q.Y, 0) {
		return fmt.Errorf("%w: query point must be finite", ErrInvalid)
	}
	if !(q.Alpha0 > 0 && q.Alpha0 < 1) { // written so NaN fails it too
		return fmt.Errorf("%w: α0 must be in (0, 1)", ErrInvalid)
	}
	if q.Iq.End <= q.Iq.Start {
		return fmt.Errorf("%w: interval must be non-empty", ErrInvalid)
	}
	return nil
}

// tiaOf returns the TIA an entry's Data holds. The augmentation attached to
// every TAR-tree entry (rstar.Entry.Data, and the Data slab of the compiled
// layout) is the entry's TIA itself: the pointer the factory returned, which
// a query probes and whose Records ingest, grouping, rebuilds and snapshots
// read. A leaf entry's index is its POI's — the registry keeps it across
// tree restructuring, DeletePOI destroys it; an internal entry's is made by
// treeAug and destroyed with the entry.
func tiaOf(data any) *tia.Index { return data.(*tia.Index) }

// idSeq issues process-unique tree identities.
var idSeq atomic.Uint64

// poiState is the per-POI registry record.
type poiState struct {
	poi    POI
	loc    geo.Vector // scaled spatial coordinates
	data   *tia.Index
	z      float64 // aggregate-dimension coordinate at insertion time
	total  int64   // lifetime aggregate
	inTree bool
}

// Tree is a TAR-tree.
type Tree struct {
	id            uint64 // process-unique, part of result-cache keys
	opts          Options
	rt            *rstar.Tree
	dims          int
	scale         float64 // world → index coordinate scale (uniform, so distances scale too)
	origin        geo.Vector
	maxDistScaled float64 // diagonal of the world in scaled coordinates

	pois      map[int64]*poiState
	lambdaMax float64 // running max of per-epoch mean aggregates λ̂
	// global holds, per epoch, the maximum aggregate over all POIs. Its
	// aggregate over a query interval is the normalization range of
	// g(p, Iq): an inexpensive, grouping-independent upper bound that every
	// index variant shares, so all variants rank identically. (Deleting a
	// POI can leave it loose; Rebuild retightens it.)
	global *tia.Index

	clock   int64                            // latest time observed
	pending map[tia.Interval]map[int64]int64 // epoch → poi → count

	// flat is the compilation of rt every search reads (see Freeze); nil
	// after a structural mutation until the next search compiles it again,
	// under compileMu.
	flat      atomic.Pointer[rstar.FlatTree]
	compileMu sync.Mutex

	instr *instruments // nil unless Options.Metrics is set
}

// NewTree creates an empty TAR-tree.
func NewTree(opts Options) (*Tree, error) {
	if err := (&opts).fill(); err != nil {
		return nil, err
	}
	ext := math.Max(opts.World.Max[0]-opts.World.Min[0], opts.World.Max[1]-opts.World.Min[1])
	if ext <= 0 {
		return nil, errors.New("core: world rectangle is degenerate")
	}
	t := &Tree{
		id:      idSeq.Add(1),
		opts:    opts,
		dims:    opts.Grouping.Dims(),
		scale:   1 / ext,
		origin:  opts.World.Min,
		pois:    make(map[int64]*poiState),
		pending: make(map[tia.Interval]map[int64]int64),
		clock:   opts.Epochs.Origin(),
	}
	t.maxDistScaled = opts.World.Diagonal(2) * t.scale
	if opts.Metrics != nil {
		t.instr = newInstruments(opts.Metrics)
		registerPageMetrics(opts.Metrics, opts.TIA.Ledger())
		if opts.Cache != nil {
			registerCacheMetrics(opts.Metrics, opts.Cache)
		}
	}
	var err error
	if t.global, err = opts.TIA.New(nil); err != nil {
		return nil, err
	}
	t.rt = rstar.New(t.rstarConfig())
	return t, nil
}

// rstarConfig builds the R-tree configuration the tree's options imply;
// NewTree, Rebuild and the snapshot-v3 loader (which thaws a frozen layout
// into a pointer tree) must agree on it.
func (t *Tree) rstarConfig() rstar.Config {
	var strat rstar.Strategy
	if t.opts.Grouping == IndAgg {
		strat = &aggStrategy{}
	}
	return rstar.Config{
		Dims:            t.dims,
		Capacity:        CapacityFor(t.opts.NodeSize, t.dims),
		Strategy:        strat,
		Aug:             &treeAug{t: t},
		DisableReinsert: t.opts.DisableReinsert,
	}
}

// Options returns the (filled-in) options the tree was created with.
func (t *Tree) Options() Options { return t.opts }

// Grouping returns the entry-grouping strategy in use.
func (t *Tree) Grouping() Grouping { return t.opts.Grouping }

// Len returns the number of indexed POIs.
func (t *Tree) Len() int { return t.rt.Len() }

// Height returns the R-tree height.
func (t *Tree) Height() int { return t.rt.Height() }

// NodeCount returns the number of leaf and internal R-tree nodes.
func (t *Tree) NodeCount() (leaves, internals int) { return t.rt.NodeCount() }

// Root exposes the underlying R-tree root so query processors (best-first
// search, BBS skyline, collective batches) can traverse and count accesses.
func (t *Tree) Root() *rstar.Node { return t.rt.Root() }

// Dims returns the index dimensionality (2 or 3).
func (t *Tree) Dims() int { return t.dims }

// scaled maps world coordinates into index coordinates.
func (t *Tree) scaled(x, y float64) geo.Vector {
	return geo.Vector{(x - t.origin[0]) * t.scale, (y - t.origin[1]) * t.scale}
}

// Epochs returns the time discretization in use.
func (t *Tree) Epochs() Epochs { return t.opts.Epochs }

// Clock returns the largest timestamp the tree has observed (check-ins,
// inserted history, explicit flush horizons). Live ingestion uses it as
// "now" when deciding which epochs have fully elapsed.
func (t *Tree) Clock() int64 { return t.clock }

// epochsElapsed returns m, the number of epochs in [t0, tc].
func (t *Tree) epochsElapsed() int64 {
	return t.opts.Epochs.Count(t.clock)
}

// observe advances the tree clock.
func (t *Tree) observe(at int64) {
	if at > t.clock {
		t.clock = at
	}
}

// lambda computes λ̂ = (1/m)·Σ vᵢ, the mean per-epoch aggregate used as the
// aggregate-dimension coordinate source (Section 5.2).
func (t *Tree) lambda(total int64) float64 {
	return float64(total) / float64(t.epochsElapsed())
}

// zCoord maps λ̂ to the aggregate dimension: z = 1 − λ̂/λ̂max.
func (t *Tree) zCoord(lambda float64) float64 {
	if t.lambdaMax <= 0 {
		return 1
	}
	z := 1 - lambda/t.lambdaMax
	if z < 0 {
		z = 0
	}
	return z
}

// InsertPOI indexes a POI together with its check-in history (aggregates
// already bucketed into epochs; zero-aggregate epochs are omitted).
func (t *Tree) InsertPOI(p POI, history []tia.Record) error {
	if _, dup := t.pois[p.ID]; dup {
		return fmt.Errorf("core: POI %d already indexed", p.ID)
	}
	if !t.opts.World.ContainsPoint(geo.Vector{p.X, p.Y}, 2) {
		return fmt.Errorf("core: POI %d at (%g, %g) outside the world rectangle", p.ID, p.X, p.Y)
	}
	data, err := t.opts.TIA.New(nil)
	if err != nil {
		return err
	}
	var total int64
	for _, r := range history {
		if r.Agg == 0 {
			continue
		}
		if err := data.Put(r); err != nil {
			return err
		}
		if err := t.raiseGlobal(r); err != nil {
			return err
		}
		total += r.Agg
		t.observe(r.Te)
	}
	st := &poiState{
		poi:   p,
		loc:   t.scaled(p.X, p.Y),
		data:  data,
		total: total,
	}
	lambda := t.lambda(total)
	if lambda > t.lambdaMax {
		t.lambdaMax = lambda
	}
	st.z = t.zCoord(lambda)
	t.pois[p.ID] = st
	st.inTree = true
	t.invalidateCache()
	t.Unfreeze()
	return t.rt.Insert(rstar.Entry{
		Rect: t.leafRect(st),
		Item: rstar.Item(p.ID),
		Data: data,
	})
}

// invalidateCache bumps the shared cache's version stamp. Called by every
// change to what a query reads; over-invalidation is harmless,
// under-invalidation never happens.
func (t *Tree) invalidateCache() {
	t.opts.Cache.Invalidate() // nil-safe
}

// leafRect builds the (point) bounding rectangle of a POI in index space.
func (t *Tree) leafRect(st *poiState) geo.Rect {
	v := st.loc
	if t.dims == 3 {
		v[2] = st.z
	}
	return geo.PointRect(v)
}

// DeletePOI removes a POI and destroys its TIA.
func (t *Tree) DeletePOI(id int64) (bool, error) {
	st, ok := t.pois[id]
	if !ok {
		return false, nil
	}
	t.Unfreeze()
	removed, err := t.rt.Delete(t.leafRect(st), rstar.Item(id))
	if err != nil {
		return false, err
	}
	if removed {
		delete(t.pois, id)
		t.invalidateCache()
		if err := st.data.Destroy(); err != nil {
			return true, err
		}
	}
	return removed, nil
}

// Lookup returns the POI registry entry.
func (t *Tree) Lookup(id int64) (POI, bool) {
	st, ok := t.pois[id]
	if !ok {
		return POI{}, false
	}
	return st.poi, true
}

// POIs visits every indexed POI (iteration order is unspecified).
func (t *Tree) POIs(fn func(p POI, total int64) bool) {
	for _, st := range t.pois {
		if !fn(st.poi, st.total) {
			return
		}
	}
}

// raiseGlobal lifts the tree-wide per-epoch maximum to cover r.
func (t *Tree) raiseGlobal(r tia.Record) error {
	if cur, ok := currentAgg(t.global, r.Ts); ok && cur >= r.Agg {
		return nil
	}
	return t.global.Put(r)
}

// newMaxIndex creates an index holding max, the per-epoch maxima its
// caller merged in memory — so each epoch reaches the new index, and the
// pages of a paged one, once and in ascending order.
func (t *Tree) newMaxIndex(max *tia.Index) (*tia.Index, error) {
	d, err := t.opts.TIA.New(nil)
	if err != nil {
		return nil, err
	}
	return d, d.MaxMerge(max.Records())
}

// treeAug maintains the TIAs of internal entries across R-tree structure
// changes (Section 4.1: an internal entry's TIA stores, per epoch, the
// maximum aggregate of the TIAs in its child node).
type treeAug struct {
	t *Tree
}

// Make implements rstar.Augmenter.
func (a *treeAug) Make(n *rstar.Node, old any) (any, error) {
	if err := a.Dispose(old); err != nil {
		return nil, err
	}
	var max tia.Index
	for _, e := range n.Entries {
		max.MaxMerge(tiaOf(e.Data).Records()) //nolint:errcheck // in memory: cannot fail
	}
	return a.t.newMaxIndex(&max)
}

// Extend implements rstar.Augmenter.
func (a *treeAug) Extend(data any, e rstar.Entry) (any, error) {
	d, _ := data.(*tia.Index)
	if d == nil {
		var err error
		if d, err = a.t.opts.TIA.New(nil); err != nil {
			return nil, err
		}
	}
	return d, d.MaxMerge(tiaOf(e.Data).Records())
}

// Dispose implements rstar.Augmenter: rstar disposes only of what Make and
// Extend returned, the indexes of internal entries.
func (a *treeAug) Dispose(data any) error {
	if d, _ := data.(*tia.Index); d != nil {
		return d.Destroy()
	}
	return nil
}

// currentAgg returns the aggregate x stores for the epoch starting at ts.
func currentAgg(x *tia.Index, ts int64) (int64, bool) {
	recs := x.Records()
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if recs[mid].Ts < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(recs) && recs[lo].Ts == ts {
		return recs[lo].Agg, true
	}
	return 0, false
}

// Rebuild reconstructs the tree from the POI registry, recomputing every
// aggregate-dimension coordinate with the current λ̂max. The paper suggests
// this as the remedy for drift as the LBSN grows (Section 8.2).
func (t *Tree) Rebuild() error {
	t.invalidateCache()
	t.Unfreeze()
	if err := t.refreshGlobals(); err != nil {
		return err
	}
	rt := rstar.New(t.rstarConfig())
	old := t.rt
	t.rt = rt
	for _, st := range t.pois {
		st.z = t.zCoord(t.lambda(st.total))
		if err := rt.Insert(rstar.Entry{
			Rect: t.leafRect(st),
			Item: rstar.Item(st.poi.ID),
			Data: st.data,
		}); err != nil {
			t.rt = old
			return err
		}
	}
	return nil
}

// RebuildBulk reconstructs the tree with sort-tile-recursive bulk loading —
// much faster than Rebuild and typically yielding tighter nodes. It packs
// by (possibly 3-dimensional) position, so it applies to the spatial
// groupings only; IndAgg trees fall back to the incremental Rebuild.
func (t *Tree) RebuildBulk() error {
	if t.opts.Grouping == IndAgg {
		return t.Rebuild()
	}
	t.invalidateCache()
	t.Unfreeze()
	if err := t.refreshGlobals(); err != nil {
		return err
	}
	entries := make([]rstar.Entry, 0, len(t.pois))
	for _, st := range t.pois {
		st.z = t.zCoord(t.lambda(st.total))
		entries = append(entries, rstar.Entry{
			Rect: t.leafRect(st),
			Item: rstar.Item(st.poi.ID),
			Data: st.data,
		})
	}
	// Map iteration is randomized; sort so rebuilds (and the snapshots
	// written from them) are deterministic for a given POI set.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Item < entries[j].Item })
	rt, err := rstar.BulkLoad(rstar.Config{
		Dims:     t.dims,
		Capacity: CapacityFor(t.opts.NodeSize, t.dims),
		Aug:      &treeAug{t: t},
	}, entries)
	if err != nil {
		return err
	}
	t.rt = rt
	return nil
}

// refreshGlobals recomputes λ̂max and retightens the global per-epoch
// maxima (deletions may have loosened them).
func (t *Tree) refreshGlobals() error {
	t.lambdaMax = 0
	var max tia.Index
	for _, st := range t.pois {
		if l := t.lambda(st.total); l > t.lambdaMax {
			t.lambdaMax = l
		}
		max.MaxMerge(st.data.Records()) //nolint:errcheck // in memory: cannot fail
	}
	if err := t.global.Destroy(); err != nil {
		return err
	}
	var err error
	t.global, err = t.newMaxIndex(&max)
	return err
}

// Check validates the R-tree invariants plus the TAR-tree augmentation
// invariant: every internal entry's TIA dominates (per epoch) the TIAs of
// the entries in its child node. Intended for tests.
func (t *Tree) Check() error {
	if err := t.rt.Check(); err != nil {
		return err
	}
	var walk func(n *rstar.Node) error
	walk = func(n *rstar.Node) error {
		for _, e := range n.Entries {
			if e.Child == nil {
				continue
			}
			parent := tiaOf(e.Data)
			for _, c := range e.Child.Entries {
				for _, r := range tiaOf(c.Data).Records() {
					got, ok := currentAgg(parent, r.Ts)
					if !ok || got < r.Agg {
						return fmt.Errorf("core: internal TIA does not dominate child at epoch %d (%d < %d)", r.Ts, got, r.Agg)
					}
				}
			}
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.rt.Root()); err != nil {
		return err
	}
	// The global maxima must dominate every POI's per-epoch aggregates.
	for id, st := range t.pois {
		for _, r := range st.data.Records() {
			got, ok := currentAgg(t.global, r.Ts)
			if !ok || got < r.Agg {
				return fmt.Errorf("core: global TIA does not dominate POI %d at epoch %d (%d < %d)", id, r.Ts, got, r.Agg)
			}
		}
	}
	return nil
}
