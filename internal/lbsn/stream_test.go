package lbsn

import (
	"bytes"
	"context"
	"math"
	"testing"

	"tartree/internal/core"
	"tartree/internal/tia"
)

func TestCheckInStreamDeterministicAndSorted(t *testing.T) {
	d, err := Generate(NYC.Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	a := d.CheckInStream()
	b := d.CheckInStream()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].ID != int64(i+1) {
			t.Fatalf("stream ID %d at position %d", a[i].ID, i)
		}
		if i > 0 && (a[i].At < a[i-1].At || (a[i].At == a[i-1].At && a[i].POI < a[i-1].POI)) {
			t.Fatalf("stream out of order at %d", i)
		}
	}
	if got := int64(len(a)); got != d.TotalCheckIns() {
		t.Fatalf("stream has %d check-ins, data set %d", got, d.TotalCheckIns())
	}
}

func TestCheckInStreamCSVRoundTrip(t *testing.T) {
	d, err := Generate(LA.Scaled(0.005))
	if err != nil {
		t.Fatal(err)
	}
	cs := d.CheckInStream()
	var buf bytes.Buffer
	if err := WriteCheckInStream(&buf, cs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckInStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cs) {
		t.Fatalf("round trip %d of %d records", len(got), len(cs))
	}
	for i := range cs {
		if got[i] != cs[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], cs[i])
		}
	}
}

// TestStreamReplayMatchesBulkBuild pins the ingestion-path equivalence: an
// empty tree fed the full check-in stream and flushed answers queries
// identically to the bulk-built tree.
func TestStreamReplayMatchesBulkBuild(t *testing.T) {
	d, err := Generate(GS.Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := d.Build(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := d.Spec.BuildEmpty(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if live.Len() != bulk.Len() {
		t.Fatalf("effective POIs: %d live vs %d bulk", live.Len(), bulk.Len())
	}
	applied, skipped, err := ReplayStream(live, d.CheckInStream())
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("replay applied nothing")
	}
	if applied+skipped != d.TotalCheckIns() {
		t.Fatalf("applied %d + skipped %d != total %d", applied, skipped, d.TotalCheckIns())
	}
	if err := live.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Per-POI aggregates over the whole span agree.
	iv := tia.Interval{Start: d.Spec.Start, End: d.Spec.End + 7*Day}
	for _, p := range d.POIs {
		if _, ok := bulk.Lookup(p.ID); !ok {
			continue
		}
		a, err := bulk.Aggregate(p.ID, iv)
		if err != nil {
			t.Fatal(err)
		}
		b, err := live.Aggregate(p.ID, iv)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("POI %d: bulk aggregate %d, replayed %d", p.ID, a, b)
		}
	}
	// Query results agree.
	for _, q := range d.Queries(10, 5, 0.3, 77) {
		want, _, err := bulk.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := live.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("result counts %d vs %d", len(want), len(got))
		}
		scores := make(map[int64]float64, len(want))
		for _, r := range want {
			scores[r.POI.ID] = r.Score
		}
		for _, r := range got {
			w, ok := scores[r.POI.ID]
			if !ok || math.Abs(w-r.Score) > 1e-9 {
				t.Fatalf("POI %d score %.12f, bulk %.12f (ok=%v)", r.POI.ID, r.Score, w, ok)
			}
		}
	}
}

// TestBuildEmptyKeep checks that BuildEmpty applies the Keep filter: a shard
// seeded through the replay path must index the same POIs as its bulk build,
// or every shard would carry, and the coordinator return, each POI once.
func TestBuildEmptyKeep(t *testing.T) {
	d, err := Generate(GS.Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	ids := func(tr *core.Tree) map[int64]bool {
		out := map[int64]bool{}
		tr.POIs(func(p core.POI, _ int64) bool {
			out[p.ID] = true
			return true
		})
		return out
	}
	o := BuildOptions{Keep: func(p core.POI) bool { return p.Y >= 50 }}
	bulk, err := d.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := d.Spec.BuildEmpty(o)
	if err != nil {
		t.Fatal(err)
	}
	want, got := ids(bulk), ids(empty)
	if len(want) == 0 || len(want) == len(d.EffectivePOIs(0, 0)) {
		t.Fatalf("Keep selected %d of %d effective POIs", len(want), len(d.EffectivePOIs(0, 0)))
	}
	if len(got) != len(want) {
		t.Fatalf("BuildEmpty indexed %d POIs, Build %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("POI %d in Build, not in BuildEmpty", id)
		}
	}
}
