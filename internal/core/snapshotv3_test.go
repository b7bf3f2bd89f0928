package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"tartree/internal/obs"
	"tartree/internal/tia"
)

// TestSnapshotV3RoundTrip: save-v3 → load reproduces the tree exactly —
// structure, aggregates, pending check-ins, λ̂max — for every grouping,
// arrives pre-frozen with the layout a recompile would produce (same
// answers, same work), and stays mutable.
func TestSnapshotV3RoundTrip(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr, r := buildRandomTree(t, g, 300, 17)
			// Buffer some unflushed check-ins so PEND is exercised.
			for i := 0; i < 25; i++ {
				if err := tr.AddCheckIn(int64(1+r.Intn(300)), tr.clock+int64(i%3)); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := tr.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			// Disk B+-tree TIAs, so the work compared below includes TIA
			// page accesses (the in-memory backend reads no page).
			got, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), tia.NewBTreeFactory(256, 10))
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tr.Len() {
				t.Fatalf("len = %d, want %d", got.Len(), tr.Len())
			}
			if !got.Frozen() {
				t.Fatal("v3 load did not install the frozen layout")
			}
			if got.lambdaMax != tr.lambdaMax {
				t.Fatalf("lambdaMax = %v, want %v", got.lambdaMax, tr.lambdaMax)
			}
			if got.PendingCheckIns() != tr.PendingCheckIns() {
				t.Fatalf("pending = %d, want %d", got.PendingCheckIns(), tr.PendingCheckIns())
			}
			if err := got.Check(); err != nil {
				t.Fatal(err)
			}
			// Identical query answers (exact: same rects, same aggregates).
			queries := make([]Query, 10)
			for i := range queries {
				queries[i] = Query{
					X: r.Float64() * 100, Y: r.Float64() * 100,
					Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(120 + r.Intn(80))},
					K:      7,
					Alpha0: 0.3,
				}
			}
			for trial, q := range queries {
				a, _, err := tr.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := got.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("trial %d: answers differ after v3 round trip", trial)
				}
			}
			// The layout read from the image is the one recompiling the
			// thawed pointer tree produces: same answers, same work.
			run := func() ([][]Result, []QueryStats) {
				var res [][]Result
				var stats []QueryStats
				for _, q := range queries {
					a, st, err := got.QueryCtx(context.Background(), q, &QueryOpts{NoCache: true})
					if err != nil {
						t.Fatal(err)
					}
					res, stats = append(res, a), append(stats, st)
				}
				return res, stats
			}
			restored, restoredWork := run()
			got.Unfreeze()
			recompiled, recompiledWork := run()
			for i := range queries {
				if !reflect.DeepEqual(restored[i], recompiled[i]) {
					t.Fatalf("trial %d: restored layout answers %v, recompiled %v", i, restored[i], recompiled[i])
				}
				a, b := restoredWork[i], recompiledWork[i]
				if a.RTreeAccesses() != b.RTreeAccesses() || a.LeafAccesses != b.LeafAccesses || a.TIAAccesses != b.TIAAccesses {
					t.Fatalf("trial %d: restored layout work (node %d, leaf %d, TIA %d) != recompiled (node %d, leaf %d, TIA %d)",
						i, a.RTreeAccesses(), a.LeafAccesses, a.TIAAccesses, b.RTreeAccesses(), b.LeafAccesses, b.TIAAccesses)
				}
			}
			// The restored tree accepts further updates (structural mutation
			// drops the frozen form first).
			if err := got.InsertPOI(POI{ID: 9999, X: 2, Y: 2}, nil); err != nil {
				t.Fatal(err)
			}
			if got.Frozen() {
				t.Fatal("insert after v3 load left the frozen layout installed")
			}
			if err := got.AddCheckIn(9999, got.clock+1); err != nil {
				t.Fatal(err)
			}
			if err := got.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if _, err := got.DeletePOI(42); err != nil {
				t.Fatal(err)
			}
			if err := got.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotPreservesPending pins the no-check-in-loss property through a
// snapshot+recover cycle: check-ins buffered but not yet flushed must
// survive SaveSnapshot/LoadSnapshot and fold into the same aggregates as on
// the original tree.
func TestSnapshotPreservesPending(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr := mustTree(t, defaultOpts(g))
			for id := int64(1); id <= 5; id++ {
				if err := tr.InsertPOI(POI{ID: id, X: float64(id) * 3, Y: float64(id) * 7}, nil); err != nil {
					t.Fatal(err)
				}
			}
			// Buffer check-ins across two epochs without flushing.
			for i := 0; i < 30; i++ {
				id := int64(i%5 + 1)
				if err := tr.AddCheckIn(id, int64(i*5)); err != nil {
					t.Fatal(err)
				}
			}
			want := tr.PendingCheckIns()
			if want == 0 {
				t.Fatal("test produced no pending check-ins")
			}

			var buf bytes.Buffer
			if err := tr.SaveSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadSnapshot(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := got.PendingCheckIns(); n != want {
				t.Fatalf("restored tree has %d pending check-ins, want %d", n, want)
			}

			// Flushing both trees must yield identical aggregates.
			if err := tr.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := got.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if n := got.PendingCheckIns(); n != 0 {
				t.Fatalf("restored tree still has %d pending after FlushAll", n)
			}
			iv := tia.Interval{Start: 0, End: 1000}
			for id := int64(1); id <= 5; id++ {
				a, err := tr.Aggregate(id, iv)
				if err != nil {
					t.Fatal(err)
				}
				b, err := got.Aggregate(id, iv)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Errorf("POI %d: aggregate %d after restore, want %d", id, b, a)
				}
			}
			if err := got.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSnapshotGarbage(t *testing.T) {
	_, err := LoadSnapshot(bytes.NewReader([]byte("not a snapshot")), nil)
	if err == nil || !strings.Contains(err.Error(), "not a snapshot-v3 image") {
		t.Fatalf("garbage: err = %v, want the snapshot-v3 refusal", err)
	}
}

// TestSnapshotV3RejectsCorrupt: truncations, bit flips and a wrong magic
// must all error — never panic, never load silently wrong data. The CRC
// trailer catches every single-bit flip; structural validation backs it up.
func TestSnapshotV3RejectsCorrupt(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 120, 31)
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Every truncation point (sampled for speed) must error.
	for n := 0; n < len(img); n += 7 {
		if _, err := LoadSnapshot(bytes.NewReader(img[:n]), nil); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
	// Bit flips across the image (sampled): CRC must reject.
	for off := 0; off < len(img); off += 131 {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), img...)
			mut[off] ^= 1 << bit
			if _, err := LoadSnapshot(bytes.NewReader(mut), nil); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", off, bit)
			}
		}
	}
	// A wrong magic is refused before anything else is read.
	mut := append([]byte(nil), img...)
	mut[0] = 'X'
	if _, err := LoadSnapshot(bytes.NewReader(mut), nil); err == nil || !strings.Contains(err.Error(), "not a snapshot-v3 image") {
		t.Fatalf("wrong magic: err = %v, want the snapshot-v3 refusal", err)
	}
}

// TestSnapshotRejectsBadPOICoordinates: a POIS row InsertPOI would refuse —
// outside the world, NaN, infinite — is refused by the loader too, even in
// an image whose checksum is resealed around it.
func TestSnapshotRejectsBadPOICoordinates(t *testing.T) {
	tr := mustTree(t, defaultOpts(TAR3D))
	for id := int64(1); id <= 3; id++ {
		if err := tr.InsertPOI(POI{ID: id, X: float64(id) * 10, Y: 50}, []tia.Record{{Ts: 0, Te: 10, Agg: id}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// POI 2's row starts with its id and x.
	row := binary.LittleEndian.AppendUint64(nil, 2)
	row = binary.LittleEndian.AppendUint64(row, math.Float64bits(20))
	at := bytes.Index(img, row)
	if at < 0 {
		t.Fatal("POI 2's row not found in the image")
	}
	for _, x := range []float64{1e9, math.NaN(), math.Inf(1), 20} {
		mut := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(mut[at+8:], math.Float64bits(x))
		resealV3(mut)
		_, err := LoadSnapshot(bytes.NewReader(mut), nil)
		if x == 20 { // the row as saved: the resealed image still loads
			if err != nil {
				t.Fatalf("the unchanged image: %v", err)
			}
		} else if err == nil || !strings.Contains(err.Error(), "POI 2") {
			t.Errorf("x = %g: err = %v, want a refusal naming POI 2", x, err)
		}
	}
}

// TestSnapshotV3EmptyTree: a POI-less tree round-trips.
func TestSnapshotV3EmptyTree(t *testing.T) {
	tr := mustTree(t, defaultOpts(TAR3D))
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("len = %d", got.Len())
	}
	if err := got.InsertPOI(POI{ID: 1, X: 5, Y: 5}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotV3RestoreInstallsLayout: a tree restored from a v3 image
// holds the compiled layout without ever calling Freeze, so the restore
// counts no compile.
func TestSnapshotV3RestoreInstallsLayout(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 200, 23)
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	got, err := LoadSnapshotObserved(bytes.NewReader(buf.Bytes()), nil, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Frozen() {
		t.Fatal("v3 load did not install the frozen layout")
	}
	if n := reg.Counter("tartree_freezes_total").Value(); n != 0 {
		t.Fatalf("restore counted as a freeze: tartree_freezes_total = %v", n)
	}
}

// TestSnapshotGeometricEpochs: the geometric-grid flag round-trips.
func TestSnapshotGeometricEpochs(t *testing.T) {
	opts := Options{
		World:    world(0, 0, 100, 100),
		Grouping: TAR3D,
		Epochs:   GeometricEpochs{Start: 0, First: 10},
	}
	tr := mustTree(t, opts)
	if err := tr.InsertPOI(POI{ID: 1, X: 5, Y: 5}, []tia.Record{{Ts: 0, Te: 10, Agg: 3}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Epochs().(GeometricEpochs); !ok {
		t.Fatalf("epochs = %T, want GeometricEpochs", got.Epochs())
	}
	a, _ := got.Aggregate(1, tia.Interval{Start: 0, End: 100})
	if a != 3 {
		t.Fatalf("aggregate = %d", a)
	}
}

// TestSnapshotV3GeometricEpochs: a geometric grid with a non-zero origin
// keeps its exact Start and First across a round trip, and records spread
// over several doubling epochs aggregate as before the save.
func TestSnapshotV3GeometricEpochs(t *testing.T) {
	want := GeometricEpochs{Start: 7, First: 5}
	opts := Options{
		World:    world(0, 0, 100, 100),
		Grouping: TAR3D,
		Epochs:   want,
	}
	tr := mustTree(t, opts)
	// Epochs of the grid: [7,12), [12,22), [22,42), [42,82).
	recs := []tia.Record{{Ts: 7, Te: 12, Agg: 2}, {Ts: 22, Te: 42, Agg: 5}, {Ts: 42, Te: 82, Agg: 1}}
	if err := tr.InsertPOI(POI{ID: 1, X: 5, Y: 5}, recs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := got.Epochs().(GeometricEpochs); !ok || e != want {
		t.Fatalf("epochs = %#v, want %#v", got.Epochs(), want)
	}
	for _, q := range []tia.Interval{{Start: 0, End: 100}, {Start: 12, End: 42}, {Start: 42, End: 82}} {
		w, _ := tr.Aggregate(1, q)
		a, _ := got.Aggregate(1, q)
		if a != w {
			t.Fatalf("aggregate over %v = %d after load, %d before", q, a, w)
		}
	}
	if a, _ := got.Aggregate(1, tia.Interval{Start: 0, End: 100}); a != 8 {
		t.Fatalf("total aggregate = %d, want 8", a)
	}
}

// TestSnapshotV3Deterministic: saving the same tree twice yields identical
// bytes (entry order is fixed by the frozen compile, POIs and pending are
// sorted), so checkpoint artifacts are reproducible and diffable.
func TestSnapshotV3Deterministic(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 150, 41)
	var a, b bytes.Buffer
	if err := tr.SaveSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same tree differ")
	}
}

// FuzzLoadSnapshotV3 hammers the v3 decoder with mutated images: any input
// must either load cleanly or error — panics and unbounded allocations are
// the failure modes the bounds-checked cursor exists to prevent — and a
// loaded tree's TIAs hold strictly ascending epochs of positive length.
// Each mutated body is re-sealed with its CRC-32C trailer, so a mutation
// reaches the section decoders instead of failing the checksum.
func FuzzLoadSnapshotV3(f *testing.F) {
	tr, _ := buildRandomTree(f, TAR3D, 60, 53)
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:40])
	f.Add(snapshotV3Magic[:])
	f.Add(overflowingV3Image(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := len(data) - 4; n >= len(snapshotV3Magic) && bytes.HasPrefix(data, snapshotV3Magic[:]) {
			data = binary.LittleEndian.AppendUint32(data[:n:n], crc32.Checksum(data[:n], v3Castagnoli))
		}
		tr, err := LoadSnapshot(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if tr == nil {
			t.Fatal("nil tree without error")
		}
		ascending := func(recs []tia.Record) {
			for i, r := range recs {
				if r.Te <= r.Ts || i > 0 && r.Ts <= recs[i-1].Ts {
					t.Fatalf("loaded records out of order or empty at %d: %v", i, recs)
				}
			}
		}
		ascending(tr.global.Records())
		for _, st := range tr.pois {
			ascending(st.data.Records())
		}
	})
}

// overflowingV3Image returns a sealed v3 image whose one POI's epoch ends
// past math.MaxInt64: the image of a record ten units short of the end, with
// its packed epoch length raised to 127 in place.
func overflowingV3Image(tb testing.TB) []byte {
	tr := mustTree(tb, defaultOpts(TAR3D))
	rec := tia.Record{Ts: math.MaxInt64 - 20, Te: math.MaxInt64 - 10, Agg: 1}
	if err := tr.InsertPOI(POI{ID: 1, X: 5, Y: 5}, []tia.Record{rec}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	img := buf.Bytes()
	packed := tia.AppendPacked(nil, []tia.Record{rec})
	at := bytes.Index(img, packed)
	if at < 0 {
		tb.Fatal("packed record not found in the image")
	}
	img[at+len(binary.AppendVarint(nil, rec.Ts))] = 127 // the uvarint Te − Ts
	resealV3(img)
	if _, err := LoadSnapshot(bytes.NewReader(img), nil); err == nil {
		tb.Fatal("an image whose epoch ends past math.MaxInt64 loaded")
	}
	return img
}

// resealV3 rewrites an image's CRC-32C trailer over its mutated body, so the
// mutation reaches the section decoders instead of failing the checksum.
func resealV3(img []byte) {
	n := len(img) - 4
	binary.LittleEndian.PutUint32(img[n:], crc32.Checksum(img[:n], v3Castagnoli))
}
