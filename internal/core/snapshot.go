package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

// snapshot is the serialized form of a tree: the POI registry with full
// aggregate histories plus the options needed to rebuild. The R-tree
// structure itself is not serialized — loading bulk-rebuilds it, which is
// both simpler and typically yields a better-packed tree than the
// incremental history would.
type snapshot struct {
	Version   int
	World     [4]float64
	NodeSize  int
	Grouping  Grouping
	Semantics tia.Semantics
	AggFunc   tia.Func
	// Epoch grid: fixed grids round-trip; custom Epochs implementations
	// must be re-supplied at load time.
	EpochStart  int64
	EpochLength int64
	Geometric   bool
	Clock       int64
	POIs        []snapshotPOI
	// Pending carries the buffered, not yet flushed check-ins (since
	// version 2), so a save/load cycle loses nothing: a snapshot taken
	// mid-epoch restores with the same PendingCheckIns and flushes to the
	// same aggregates.
	Pending []snapshotEpoch
}

type snapshotPOI struct {
	ID      int64
	X, Y    float64
	Records []tia.Record
}

// snapshotEpoch is one buffered epoch of pending check-ins.
type snapshotEpoch struct {
	Start, End int64
	POIs       []int64
	Counts     []int64
}

const snapshotVersion = 2

// SaveSnapshot serializes the tree (POIs, histories, configuration, and any
// pending check-ins) so a later process can LoadSnapshot it without
// replaying the check-in stream.
func (t *Tree) SaveSnapshot(w io.Writer) error {
	s := snapshot{
		Version:   snapshotVersion,
		World:     [4]float64{t.opts.World.Min[0], t.opts.World.Min[1], t.opts.World.Max[0], t.opts.World.Max[1]},
		NodeSize:  t.opts.NodeSize,
		Grouping:  t.opts.Grouping,
		Semantics: t.opts.Semantics,
		AggFunc:   t.opts.AggFunc,
		Clock:     t.clock,
	}
	switch e := t.opts.Epochs.(type) {
	case FixedEpochs:
		s.EpochStart, s.EpochLength = e.Start, e.Length
	case GeometricEpochs:
		s.EpochStart, s.EpochLength, s.Geometric = e.Start, e.First, true
	default:
		return fmt.Errorf("core: cannot snapshot custom epoch scheme %T", e)
	}
	s.POIs = make([]snapshotPOI, 0, len(t.pois))
	for _, st := range t.pois {
		s.POIs = append(s.POIs, snapshotPOI{
			ID:      st.poi.ID,
			X:       st.poi.X,
			Y:       st.poi.Y,
			Records: append([]tia.Record(nil), st.data.Records()...),
		})
	}
	for ep, counts := range t.pending {
		se := snapshotEpoch{Start: ep.Start, End: ep.End}
		for id, c := range counts {
			se.POIs = append(se.POIs, id)
			se.Counts = append(se.Counts, c)
		}
		sortEpochPOIs(&se)
		s.Pending = append(s.Pending, se)
	}
	sort.Slice(s.Pending, func(i, j int) bool { return s.Pending[i].Start < s.Pending[j].Start })
	return gob.NewEncoder(w).Encode(&s)
}

// sortEpochPOIs orders one pending epoch's parallel slices by POI id so
// snapshots of the same tree encode identically.
func sortEpochPOIs(se *snapshotEpoch) {
	idx := make([]int, len(se.POIs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return se.POIs[idx[a]] < se.POIs[idx[b]] })
	pois := make([]int64, len(idx))
	counts := make([]int64, len(idx))
	for i, j := range idx {
		pois[i], counts[i] = se.POIs[j], se.Counts[j]
	}
	se.POIs, se.Counts = pois, counts
}

// LoadSnapshot reconstructs a tree saved with SaveSnapshot or
// SaveSnapshotV3 — the format is detected from the leading magic bytes. The
// TIA factory is supplied fresh (disk state is rebuilt, not deserialized);
// nil selects the default. On the legacy gob path the index is bulk-rebuilt
// for spatial groupings; on the v3 path the frozen layout loads directly
// from the on-disk sections.
func LoadSnapshot(r io.Reader, factory tia.Factory) (*Tree, error) {
	return LoadSnapshotObserved(r, factory, nil, nil)
}

// LoadSnapshotObserved is LoadSnapshot with instrumentation and caching:
// the rebuilt tree publishes metrics as if it had been created with
// Options.Metrics set, and attaches the shared epoch-versioned cache (nil
// disables). The WAL recovery path uses it so a restored server keeps its
// observability surface and cache.
func LoadSnapshotObserved(r io.Reader, factory tia.Factory, metrics *obs.Registry, cache *aggcache.Cache) (*Tree, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(snapshotV3Magic)); err == nil && bytes.Equal(magic, snapshotV3Magic[:]) {
		b, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: reading v3 snapshot: %w", err)
		}
		return loadSnapshotV3(b, factory, metrics, cache)
	}
	var s snapshot
	if err := gob.NewDecoder(br).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if s.Version < 1 || s.Version > snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", s.Version)
	}
	opts := Options{
		World:     geo.Rect{Min: geo.Vector{s.World[0], s.World[1]}, Max: geo.Vector{s.World[2], s.World[3]}},
		NodeSize:  s.NodeSize,
		Grouping:  s.Grouping,
		Semantics: s.Semantics,
		AggFunc:   s.AggFunc,
		TIA:       factory,
		Metrics:   metrics,
		Cache:     cache,
	}
	if s.Geometric {
		opts.Epochs = GeometricEpochs{Start: s.EpochStart, First: s.EpochLength}
	} else {
		opts.EpochStart, opts.EpochLength = s.EpochStart, s.EpochLength
	}
	t, err := NewTree(opts)
	if err != nil {
		return nil, err
	}
	t.observe(s.Clock)
	for _, p := range s.POIs {
		if err := t.InsertPOI(POI{ID: p.ID, X: p.X, Y: p.Y}, p.Records); err != nil {
			return nil, err
		}
	}
	t.observe(s.Clock) // inserting history may have rewound nothing; re-pin
	for _, se := range s.Pending {
		ep := tia.Interval{Start: se.Start, End: se.End}
		m := make(map[int64]int64, len(se.POIs))
		for i, id := range se.POIs {
			m[id] = se.Counts[i]
		}
		t.pending[ep] = m
	}
	if t.opts.Grouping != IndAgg {
		if err := t.RebuildBulk(); err != nil {
			return nil, err
		}
	}
	return t, nil
}
