package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// Snapshot v3 is the one on-disk image of a tree — every checkpoint,
// follower bootstrap and tartree.Load reads and writes it. It is an exact
// image of the frozen flat layout: fixed-width little-endian sections
// followed by a CRC-32C trailer (the WAL's checksum). Loading is section
// reads — the node and entry slabs deserialize straight into an
// rstar.FlatTree, TIA contents arrive packed (tia.AppendPacked) instead of
// being recomputed from POI histories — so a server restart makes no
// per-POI insert and no bulk rebuild.
//
// Layout (all integers little-endian):
//
//	magic        8 B  "TARSNP3\x00"
//	headerBytes  u32  length of the fixed header including the magic
//	flags        u32  bit 0 = geometric epoch grid
//	grouping     u32
//	semantics    u32
//	aggFunc      u32
//	nodeSize     u32
//	world        4×f64 (minX, minY, maxX, maxY)
//	epochStart   i64
//	epochLength  i64  (first epoch length when geometric)
//	clock        i64
//	lambdaMax    f64  running max of per-epoch mean aggregates λ̂
//	height       u32  frozen tree height
//	count        u64  number of POIs (= leaf entries)
//
// then the sections, each "<4-byte id> <u64 payload length> <payload>", in
// fixed order:
//
//	TIAS  per-TIA record streams: u64 count, then per TIA a uvarint record
//	      count followed by the packed records. TIA 0 is the tree-global
//	      per-epoch-maximum index, TIAs 1..P belong to the POIs in POIS
//	      order, the rest to internal entries in ENTR order.
//	POIS  u64 count, then per POI: id i64, x f64, y f64, z f64, total i64,
//	      tiaRef u32. z is the aggregate-dimension coordinate at insertion
//	      time — stored, not recomputed, because the leaf rectangles embed
//	      it and DeletePOI must reproduce it exactly.
//	PEND  buffered check-ins: u64 epoch count, then per epoch start i64,
//	      end i64, u64 n, n×(poi i64, count i64).
//	NODE  u64 count, then per node level i32, start i32, count i32.
//	ENTR  u64 count, then per entry rect 6×f64 (min xyz, max xyz), child
//	      node id i32 (−1 = leaf), item i64, tiaRef u32.
//
// and finally a u32 CRC-32C of everything before it.
var snapshotV3Magic = [8]byte{'T', 'A', 'R', 'S', 'N', 'P', '3', 0}

const (
	v3HeaderBytes = 8 + 4 + 5*4 + 4*8 + 3*8 + 8 + 4 + 8
	v3FlagGeom    = 1 << 0

	v3POIBytes   = 8 + 3*8 + 8 + 4 // id, x, y, z, total, tiaRef
	v3NodeBytes  = 12              // level, start, count
	v3EntryBytes = 6*8 + 4 + 8 + 4 // rect, child, item, tiaRef
)

var v3Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveSnapshot writes the snapshot-v3 image (POIs, histories,
// configuration and any pending check-ins), so a later process can
// LoadSnapshot it without replaying the check-in stream. It only reads the
// tree (the WAL checkpointer calls it under a read lock) and writes its
// compiled flat layout, compiling it first — as a search would — when a
// structural mutation dropped it.
func (t *Tree) SaveSnapshot(w io.Writer) error {
	var flags uint32
	var epochStart, epochLength int64
	switch e := t.opts.Epochs.(type) {
	case FixedEpochs:
		epochStart, epochLength = e.Start, e.Length
	case GeometricEpochs:
		epochStart, epochLength = e.Start, e.First
		flags |= v3FlagGeom
	default:
		return fmt.Errorf("core: cannot snapshot custom epoch scheme %T", e)
	}
	l := t.compiled()
	f := l.ft

	// Assign TIA references: 0 = global, 1..P the POIs by ascending id,
	// then internal entries in entry order. Leaf entries share their POI's
	// TIA, so the walk below never mints a reference for them. eids[ref]
	// is the TIA's entry, whose records the columns hold when l has them.
	ids := make([]int64, 0, len(t.pois))
	for id := range t.pois {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	refs := map[*tia.Index]uint32{t.global: 0}
	tias := []*tia.Index{t.global}
	eids := []int32{-1}
	for _, id := range ids {
		st := t.pois[id]
		refs[st.data] = uint32(len(tias))
		tias = append(tias, st.data)
		eids = append(eids, st.eid)
	}
	for eid, data := range f.Data {
		d := tiaOf(data)
		if _, ok := refs[d]; !ok {
			refs[d] = uint32(len(tias))
			tias = append(tias, d)
			eids = append(eids, int32(eid))
		}
	}

	// Where the columns hold the records, every entry's are encoded first,
	// in entry order (packed[at[eid]:at[eid+1]]), so that the columns are
	// read in order, and then copied out in reference order.
	var (
		packed []byte
		at     []int
	)
	if l.cols != nil {
		at = make([]int, 0, l.cols.n+1)
		l.cols.eachBlock(func(_ int, recs [][]tia.Record) {
			for _, r := range recs {
				at = append(at, len(packed))
				packed = binary.AppendUvarint(packed, uint64(len(r)))
				packed = tia.AppendPacked(packed, r)
			}
		})
		at = append(at, len(packed))
	}

	// The image is written into one buffer allocated at a size it cannot
	// outgrow, each section's payload in place. Each of the five sections
	// takes its id, its length and its count.
	size := v3HeaderBytes + 5*(4+8+8) + len(packed) + len(ids)*v3POIBytes +
		len(f.Nodes)*v3NodeBytes + len(f.Rects)*v3EntryBytes + 4
	for ref, d := range tias {
		if ref == 0 || l.cols == nil {
			size += binary.MaxVarintLen64 * (1 + 3*len(d.Records()))
		}
	}
	for _, counts := range t.pending {
		size += 3*8 + 2*8*len(counts)
	}
	buf := make([]byte, 0, size)

	buf = append(buf, snapshotV3Magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, v3HeaderBytes)
	buf = binary.LittleEndian.AppendUint32(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.opts.Grouping))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.opts.Semantics))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.opts.AggFunc))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.opts.NodeSize))
	for _, v := range [4]float64{t.opts.World.Min[0], t.opts.World.Min[1], t.opts.World.Max[0], t.opts.World.Max[1]} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(epochStart))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(epochLength))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.clock))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.lambdaMax))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Height))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Count))

	var mark int // where the open section's payload starts
	sectionStart := func(id string) {
		buf = append(buf, id...)
		buf = binary.LittleEndian.AppendUint64(buf, 0) // its length, once known
		mark = len(buf)
	}
	sectionEnd := func() {
		binary.LittleEndian.PutUint64(buf[mark-8:mark], uint64(len(buf)-mark))
	}

	sectionStart("TIAS")
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(tias)))
	for ref, d := range tias {
		if ref > 0 && l.cols != nil {
			buf = append(buf, packed[at[eids[ref]]:at[eids[ref]+1]]...)
			continue
		}
		recs := d.Records()
		buf = binary.AppendUvarint(buf, uint64(len(recs)))
		buf = tia.AppendPacked(buf, recs)
	}
	sectionEnd()

	sectionStart("POIS")
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ids)))
	for _, id := range ids {
		st := t.pois[id]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.poi.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.poi.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.poi.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.z))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.total))
		buf = binary.LittleEndian.AppendUint32(buf, refs[st.data])
	}
	sectionEnd()

	// Pending epochs by start, each one's POIs by ascending id, so saves of
	// the same tree encode identically.
	eps := make([]tia.Interval, 0, len(t.pending))
	for ep := range t.pending {
		eps = append(eps, ep)
	}
	slices.SortFunc(eps, func(a, b tia.Interval) int { return cmp.Compare(a.Start, b.Start) })
	sectionStart("PEND")
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(eps)))
	for _, ep := range eps {
		counts := t.pending[ep]
		pois := make([]int64, 0, len(counts))
		for id := range counts {
			pois = append(pois, id)
		}
		slices.Sort(pois)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ep.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ep.End))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(pois)))
		for _, id := range pois {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(counts[id]))
		}
	}
	sectionEnd()

	sectionStart("NODE")
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f.Nodes)))
	for _, n := range f.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Level))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Count))
	}
	sectionEnd()

	sectionStart("ENTR")
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(f.Rects)))
	for i := range f.Rects {
		r := &f.Rects[i]
		for d := 0; d < geo.MaxDims; d++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Min[d]))
		}
		for d := 0; d < geo.MaxDims; d++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Max[d]))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Children[i]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Items[i]))
		buf = binary.LittleEndian.AppendUint32(buf, refs[tiaOf(f.Data[i])])
	}
	sectionEnd()

	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, v3Castagnoli))
	_, err := w.Write(buf)
	return err
}

// v3cursor is a bounds-checked reader over the snapshot bytes; every read
// that would run past the end reports corruption instead of panicking.
type v3cursor struct {
	b   []byte
	off int
}

func (c *v3cursor) need(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) {
		return nil, fmt.Errorf("core: snapshot truncated at byte %d (need %d of %d)", c.off, n, len(c.b))
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s, nil
}

func (c *v3cursor) u32() (uint32, error) {
	s, err := c.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

func (c *v3cursor) u64() (uint64, error) {
	s, err := c.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s), nil
}

func (c *v3cursor) i64() (int64, error) { v, err := c.u64(); return int64(v), err }

func (c *v3cursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

// count reads a u64 element count and rejects values that could not fit in
// the remaining bytes at elemBytes each — a forged count then fails before
// any allocation proportional to it.
func (c *v3cursor) count(elemBytes int) (int, error) {
	v, err := c.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(c.b)-c.off)/uint64(elemBytes) {
		return 0, fmt.Errorf("core: snapshot count %d exceeds remaining %d bytes", v, len(c.b)-c.off)
	}
	return int(v), nil
}

// section checks the 4-byte section id and returns a cursor over its
// payload, advancing the parent past it.
func (c *v3cursor) section(id string) (*v3cursor, error) {
	s, err := c.need(4)
	if err != nil {
		return nil, err
	}
	if string(s) != id {
		return nil, fmt.Errorf("core: snapshot section %q where %q expected", s, id)
	}
	n, err := c.u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)-c.off) {
		return nil, fmt.Errorf("core: snapshot section %s length %d exceeds remaining %d bytes", id, n, len(c.b)-c.off)
	}
	p, err := c.need(int(n))
	if err != nil {
		return nil, err
	}
	return &v3cursor{b: p}, nil
}

// LoadSnapshot reconstructs a tree saved with SaveSnapshot; any other
// input is refused. The TIA factory is supplied fresh (a TIA's records are
// decoded, not its pages); nil selects the default, in-memory TIAs. The
// tree arrives with the frozen layout read from the image installed.
func LoadSnapshot(r io.Reader, factory tia.Factory) (*Tree, error) {
	return LoadSnapshotObserved(r, factory, nil, nil)
}

// LoadSnapshotObserved is LoadSnapshot with instrumentation and caching:
// the loaded tree publishes metrics as if it had been created with
// Options.Metrics set, and attaches the shared epoch-versioned cache (nil
// disables). The WAL recovery path uses it so a restored server keeps its
// observability surface and cache.
func LoadSnapshotObserved(r io.Reader, factory tia.Factory, metrics *obs.Registry, cache *aggcache.Cache) (*Tree, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	return loadSnapshotV3(b, factory, metrics, cache)
}

// loadSnapshotV3 decodes a v3 image. It builds the rstar.FlatTree straight
// from the NODE/ENTR sections, validates it, and installs it as the
// serving layout — no per-POI inserts, no bulk rebuild and no pointer
// tree, for every grouping including IND-agg.
func loadSnapshotV3(b []byte, factory tia.Factory, metrics *obs.Registry, cache *aggcache.Cache) (*Tree, error) {
	if !bytes.HasPrefix(b, snapshotV3Magic[:]) {
		return nil, fmt.Errorf("core: not a snapshot-v3 image")
	}
	if len(b) < v3HeaderBytes+4 {
		return nil, fmt.Errorf("core: snapshot truncated at %d bytes", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, v3Castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("core: snapshot checksum mismatch")
	}
	c := &v3cursor{b: body, off: 8}
	hdrLen, err := c.u32()
	if err != nil {
		return nil, err
	}
	if hdrLen != v3HeaderBytes {
		return nil, fmt.Errorf("core: snapshot header length %d, want %d", hdrLen, v3HeaderBytes)
	}
	flags, err := c.u32()
	if err != nil {
		return nil, err
	}
	var grouping, semantics, aggFunc, nodeSize uint32
	for _, dst := range []*uint32{&grouping, &semantics, &aggFunc, &nodeSize} {
		if *dst, err = c.u32(); err != nil {
			return nil, err
		}
	}
	var world [4]float64
	for i := range world {
		if world[i], err = c.f64(); err != nil {
			return nil, err
		}
	}
	epochStart, err := c.i64()
	if err != nil {
		return nil, err
	}
	epochLength, err := c.i64()
	if err != nil {
		return nil, err
	}
	clock, err := c.i64()
	if err != nil {
		return nil, err
	}
	lambdaMax, err := c.f64()
	if err != nil {
		return nil, err
	}
	height, err := c.u32()
	if err != nil {
		return nil, err
	}
	itemCount, err := c.u64()
	if err != nil {
		return nil, err
	}
	if grouping > uint32(IndAgg) {
		return nil, fmt.Errorf("core: snapshot grouping %d unknown", grouping)
	}

	opts := Options{
		World:     geo.Rect{Min: geo.Vector{world[0], world[1]}, Max: geo.Vector{world[2], world[3]}},
		NodeSize:  int(nodeSize),
		Grouping:  Grouping(grouping),
		Semantics: tia.Semantics(semantics),
		AggFunc:   tia.Func(aggFunc),
		TIA:       factory,
		Metrics:   metrics,
		Cache:     cache,
	}
	if flags&v3FlagGeom != 0 {
		opts.Epochs = GeometricEpochs{Start: epochStart, First: epochLength}
	} else {
		opts.EpochStart, opts.EpochLength = epochStart, epochLength
	}
	t, err := NewTree(opts)
	if err != nil {
		return nil, err
	}
	t.observe(clock)
	t.lambdaMax = lambdaMax

	// TIAS: decode the packed record streams.
	ts, err := c.section("TIAS")
	if err != nil {
		return nil, err
	}
	ntias, err := ts.count(1)
	if err != nil {
		return nil, err
	}
	if ntias < 1 {
		return nil, fmt.Errorf("core: snapshot has no TIA table")
	}
	recsByRef := make([][]tia.Record, ntias)
	rest := ts.b[ts.off:]
	for i := 0; i < ntias; i++ {
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("core: snapshot TIA %d truncated", i)
		}
		rest = rest[k:]
		if n > uint64(len(rest)) { // before int(n) can wrap; DecodePacked bounds it tighter
			return nil, fmt.Errorf("core: snapshot TIA %d record count %d exceeds section", i, n)
		}
		recs, r2, err := tia.DecodePacked(rest, int(n))
		if err != nil {
			return nil, fmt.Errorf("core: snapshot TIA %d: %w", i, err)
		}
		for _, r := range recs {
			if err := t.checkRecord(r); err != nil {
				return nil, fmt.Errorf("core: snapshot TIA %d: %v", i, err)
			}
		}
		recsByRef[i], rest = recs, r2
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: snapshot TIA section has %d trailing bytes", len(rest))
	}

	// dataFor materializes the TIA of one reference. The global TIA, a POI
	// and an internal entry each own theirs — whoever destroys the owner
	// destroys the index — so a reference cited twice is refused; only the
	// leaf entries of the ENTR section share (their POI's, shared = true),
	// exactly as the live tree does. The packed decode guarantees strictly
	// ascending Ts, and the decoded slice is handed over: it becomes the
	// in-memory index's storage, and a paged index is also built bottom-up
	// from it (each page written once).
	datas := make([]*tia.Index, ntias)
	dataFor := func(ref uint32, shared bool) (*tia.Index, error) {
		if ref >= uint32(ntias) {
			return nil, fmt.Errorf("core: snapshot TIA reference %d out of range", ref)
		}
		if (datas[ref] != nil) != shared {
			return nil, fmt.Errorf("core: snapshot TIA %d is cited by the wrong owner", ref)
		}
		if !shared {
			var err error
			if datas[ref], err = t.opts.TIA.New(recsByRef[ref]); err != nil {
				return nil, err
			}
		}
		return datas[ref], nil
	}

	// Global per-epoch maxima: replace the empty index NewTree installed.
	if err := t.global.Destroy(); err != nil {
		return nil, err
	}
	if t.global, err = dataFor(0, false); err != nil {
		return nil, err
	}
	t.globalSeq++

	// POIS.
	ps, err := c.section("POIS")
	if err != nil {
		return nil, err
	}
	npois, err := ps.count(v3POIBytes)
	if err != nil {
		return nil, err
	}
	if uint64(npois) != itemCount {
		return nil, fmt.Errorf("core: snapshot has %d POIs but header says %d items", npois, itemCount)
	}
	for i := 0; i < npois; i++ {
		id, err := ps.i64()
		if err != nil {
			return nil, err
		}
		var x, y, z float64
		for _, dst := range []*float64{&x, &y, &z} {
			if *dst, err = ps.f64(); err != nil {
				return nil, err
			}
		}
		total, err := ps.i64()
		if err != nil {
			return nil, err
		}
		ref, err := ps.u32()
		if err != nil {
			return nil, err
		}
		if _, dup := t.pois[id]; dup {
			return nil, fmt.Errorf("core: snapshot POI %d duplicated", id)
		}
		if err := t.checkLocation(POI{ID: id, X: x, Y: y}); err != nil {
			return nil, fmt.Errorf("core: snapshot %w", err)
		}
		data, err := dataFor(ref, false)
		if err != nil {
			return nil, err
		}
		t.pois[id] = &poiState{
			poi:   POI{ID: id, X: x, Y: y},
			loc:   t.scaled(x, y),
			data:  data,
			z:     z,
			total: total,
		}
	}

	// PEND.
	es, err := c.section("PEND")
	if err != nil {
		return nil, err
	}
	neps, err := es.count(24)
	if err != nil {
		return nil, err
	}
	for i := 0; i < neps; i++ {
		start, err := es.i64()
		if err != nil {
			return nil, err
		}
		end, err := es.i64()
		if err != nil {
			return nil, err
		}
		if err := t.checkRecord(tia.Record{Ts: start, Te: end}); err != nil {
			return nil, fmt.Errorf("core: snapshot pending epoch: %v", err)
		}
		n, err := es.count(16)
		if err != nil {
			return nil, err
		}
		m := make(map[int64]int64, n)
		for j := 0; j < n; j++ {
			id, err := es.i64()
			if err != nil {
				return nil, err
			}
			cnt, err := es.i64()
			if err != nil {
				return nil, err
			}
			if cnt <= 0 {
				return nil, fmt.Errorf("core: snapshot pending count %d for POI %d", cnt, id)
			}
			m[id] = cnt
		}
		t.pending[tia.Interval{Start: start, End: end}] = m
	}

	// NODE + ENTR → FlatTree.
	ns, err := c.section("NODE")
	if err != nil {
		return nil, err
	}
	nnodes, err := ns.count(v3NodeBytes)
	if err != nil {
		return nil, err
	}
	f := &rstar.FlatTree{Dims: t.dims, Height: int(height), Count: int(itemCount)}
	f.Nodes = make([]rstar.FlatNode, nnodes)
	for i := range f.Nodes {
		var lvl, start, cnt uint32
		for _, dst := range []*uint32{&lvl, &start, &cnt} {
			if *dst, err = ns.u32(); err != nil {
				return nil, err
			}
		}
		f.Nodes[i] = rstar.FlatNode{Level: int32(lvl), Start: int32(start), Count: int32(cnt)}
	}
	esec, err := c.section("ENTR")
	if err != nil {
		return nil, err
	}
	nentries, err := esec.count(v3EntryBytes)
	if err != nil {
		return nil, err
	}
	f.Rects = make([]geo.Rect, nentries)
	f.Children = make([]int32, nentries)
	f.Items = make([]int64, nentries)
	f.Data = make([]any, nentries)
	leaves := 0
	for i := 0; i < nentries; i++ {
		var r geo.Rect
		for d := 0; d < geo.MaxDims; d++ {
			if r.Min[d], err = esec.f64(); err != nil {
				return nil, err
			}
		}
		for d := 0; d < geo.MaxDims; d++ {
			if r.Max[d], err = esec.f64(); err != nil {
				return nil, err
			}
		}
		child, err := esec.u32()
		if err != nil {
			return nil, err
		}
		item, err := esec.i64()
		if err != nil {
			return nil, err
		}
		ref, err := esec.u32()
		if err != nil {
			return nil, err
		}
		f.Rects[i], f.Children[i], f.Items[i] = r, int32(child), item
		leaf := int32(child) < 0 // shares the POI's TIA
		if leaf {
			if _, ok := t.pois[item]; !ok {
				return nil, fmt.Errorf("core: snapshot leaf entry references unknown POI %d", item)
			}
			leaves++
		}
		d, err := dataFor(ref, leaf)
		if err != nil {
			return nil, err
		}
		if leaf && d != t.pois[item].data {
			return nil, fmt.Errorf("core: snapshot leaf entry for POI %d cites TIA %d, not the POI's", item, ref)
		}
		f.Data[i] = d
	}
	if leaves != npois {
		return nil, fmt.Errorf("core: snapshot has %d leaf entries for %d POIs", leaves, npois)
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("core: snapshot has %d trailing bytes", len(c.b)-c.off)
	}

	// The flat form itself becomes the installed layout once Validate
	// accepts its structure (bounds, cycles, aliasing, level skew); no
	// pointer tree is built until a structural mutation thaws one.
	if err := f.Validate(); err != nil {
		return nil, err
	}
	t.flat.Store(t.newLayout(f)) // with its columns: the first search compiles nothing
	t.rt = nil
	return t, nil
}
