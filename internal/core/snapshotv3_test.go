package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"tartree/internal/obs"
	"tartree/internal/tia"
)

// TestSnapshotV3RoundTrip: save-v3 → load reproduces the tree exactly —
// structure, aggregates, pending check-ins, λ̂max — for every grouping,
// arrives pre-frozen, and stays mutable.
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
			if err := tr.SaveSnapshotV3(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), nil)
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
			for trial := 0; trial < 10; trial++ {
				q := Query{
					X: r.Float64() * 100, Y: r.Float64() * 100,
					Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(120 + r.Intn(80))},
					K:      7,
					Alpha0: 0.3,
				}
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

// TestSnapshotV3MatchesV2: a tree saved both ways loads to equivalent
// trees — same answers, same aggregates — so old gob snapshots keep loading
// through the legacy path while new checkpoints use v3.
func TestSnapshotV3MatchesV2(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		t.Run(g.String(), func(t *testing.T) {
			tr, r := buildRandomTree(t, g, 200, 23)
			var v2, v3 bytes.Buffer
			if err := tr.SaveSnapshot(&v2); err != nil {
				t.Fatal(err)
			}
			if err := tr.SaveSnapshotV3(&v3); err != nil {
				t.Fatal(err)
			}
			fromV2, err := LoadSnapshot(&v2, nil)
			if err != nil {
				t.Fatal(err)
			}
			fromV3, err := LoadSnapshot(&v3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fromV2.Len() != fromV3.Len() {
				t.Fatalf("lens differ: %d vs %d", fromV2.Len(), fromV3.Len())
			}
			iv := tia.Interval{Start: 0, End: 500}
			fromV2.POIs(func(p POI, total int64) bool {
				a, err := fromV2.Aggregate(p.ID, iv)
				if err != nil {
					t.Fatal(err)
				}
				b, err := fromV3.Aggregate(p.ID, iv)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("POI %d: aggregate %d (v2) vs %d (v3)", p.ID, a, b)
				}
				return true
			})
			for trial := 0; trial < 10; trial++ {
				q := Query{
					X: r.Float64() * 100, Y: r.Float64() * 100,
					Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(120 + r.Intn(80))},
					K:      5,
					Alpha0: 0.4,
				}
				a, _, err := fromV2.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := fromV3.QueryCtx(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("trial %d: %d vs %d results", trial, len(a), len(b))
				}
				for i := range a {
					if a[i].POI.ID != b[i].POI.ID || a[i].Agg != b[i].Agg {
						t.Fatalf("trial %d pos %d: (%d,%d) vs (%d,%d)",
							trial, i, a[i].POI.ID, a[i].Agg, b[i].POI.ID, b[i].Agg)
					}
				}
			}
		})
	}
}

// TestSnapshotV3RejectsCorrupt: truncations, bit flips and a wrong magic
// must all error — never panic, never load silently wrong data. The CRC
// trailer catches every single-bit flip; structural validation backs it up.
func TestSnapshotV3RejectsCorrupt(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 120, 31)
	var buf bytes.Buffer
	if err := tr.SaveSnapshotV3(&buf); err != nil {
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
	// Wrong magic falls through to the gob path and must error there.
	mut := append([]byte(nil), img...)
	mut[0] = 'X'
	if _, err := LoadSnapshot(bytes.NewReader(mut), nil); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

// TestSnapshotV3EmptyTree: a POI-less tree round-trips.
func TestSnapshotV3EmptyTree(t *testing.T) {
	tr := mustTree(t, defaultOpts(TAR3D))
	var buf bytes.Buffer
	if err := tr.SaveSnapshotV3(&buf); err != nil {
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

// TestSnapshotV3RestoreExportsIndexGauges: a tree restored frozen from a
// v3 image reports the by-layout footprint gauges without ever calling
// Freeze — the loader installs the layout through the same telemetry path.
func TestSnapshotV3RestoreExportsIndexGauges(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 200, 23)
	var buf bytes.Buffer
	if err := tr.SaveSnapshotV3(&buf); err != nil {
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
	ptr := reg.Gauge(`tartree_index_bytes{layout="pointer"}`).Value()
	flat := reg.Gauge(`tartree_index_bytes{layout="flat"}`).Value()
	if flat <= 0 || ptr <= 0 || flat >= ptr {
		t.Fatalf("restored gauges: pointer=%v flat=%v (want 0 < flat < pointer)", ptr, flat)
	}
	if n := reg.Counter("tartree_freezes_total").Value(); n != 0 {
		t.Fatalf("restore counted as a freeze: tartree_freezes_total = %v", n)
	}
}

// TestSnapshotV3GeometricEpochs: the geometric-grid flag round-trips.
func TestSnapshotV3GeometricEpochs(t *testing.T) {
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
	if err := tr.SaveSnapshotV3(&buf); err != nil {
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

// TestSnapshotV3Deterministic: saving the same tree twice yields identical
// bytes (entry order is fixed by the frozen compile, POIs and pending are
// sorted), so checkpoint artifacts are reproducible and diffable.
func TestSnapshotV3Deterministic(t *testing.T) {
	tr, _ := buildRandomTree(t, TAR3D, 150, 41)
	var a, b bytes.Buffer
	if err := tr.SaveSnapshotV3(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveSnapshotV3(&b); err != nil {
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
	if err := tr.SaveSnapshotV3(&buf); err != nil {
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
	if err := tr.SaveSnapshotV3(&buf); err != nil {
		tb.Fatal(err)
	}
	img := buf.Bytes()
	packed := tia.AppendPacked(nil, []tia.Record{rec})
	at := bytes.Index(img, packed)
	if at < 0 {
		tb.Fatal("packed record not found in the image")
	}
	img[at+len(binary.AppendVarint(nil, rec.Ts))] = 127 // the uvarint Te − Ts
	n := len(img) - 4
	binary.LittleEndian.PutUint32(img[n:], crc32.Checksum(img[:n], v3Castagnoli))
	if _, err := LoadSnapshot(bytes.NewReader(img), nil); err == nil {
		tb.Fatal("an image whose epoch ends past math.MaxInt64 loaded")
	}
	return img
}
