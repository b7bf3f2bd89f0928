package tia

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestPackedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := [][]Record{
		nil,
		{{Ts: 0, Te: 10, Agg: 5}},
		{{Ts: -100, Te: -90, Agg: -3}, {Ts: 0, Te: 10, Agg: 0}, {Ts: 10, Te: 20, Agg: 1 << 40}},
		// Deltas past 2^62, and past math.MaxInt64, that land on the axis.
		{{Ts: 300, Te: 400, Agg: 1}, {Ts: 4769364988910383100, Te: 4769364988910383200, Agg: 2}},
		{{Ts: math.MinInt64, Te: 0, Agg: 1}, {Ts: math.MaxInt64 - 1, Te: math.MaxInt64, Agg: 1}},
		{{Ts: math.MinInt64, Te: math.MaxInt64, Agg: 1}},
	}
	// Random sorted histories.
	for trial := 0; trial < 20; trial++ {
		var recs []Record
		ts := int64(r.Intn(1000)) - 500
		for i := 0; i < r.Intn(50); i++ {
			le := int64(1 + r.Intn(100))
			recs = append(recs, Record{Ts: ts, Te: ts + le, Agg: int64(r.Intn(1000)) - 100})
			ts += le + int64(r.Intn(30))
		}
		cases = append(cases, recs)
	}
	for i, recs := range cases {
		b := AppendPacked(nil, recs)
		got, rest, err := DecodePacked(b, len(recs))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d bytes left over", i, len(rest))
		}
		if len(recs) == 0 {
			if len(got) != 0 {
				t.Fatalf("case %d: decoded %d records from empty", i, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("case %d: round trip mismatch\n%v\n%v", i, got, recs)
		}
	}
}

func TestPackedRejectsCorrupt(t *testing.T) {
	good := AppendPacked(nil, []Record{{Ts: 5, Te: 15, Agg: 9}, {Ts: 15, Te: 25, Agg: 2}})
	// Every truncation must error.
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodePacked(good[:n], 2); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// A count beyond the data must error, not allocate.
	if _, _, err := DecodePacked(good, 1000000); err == nil {
		t.Fatal("oversized count accepted")
	}
	if _, _, err := DecodePacked(good, -1); err == nil {
		t.Fatal("negative count accepted")
	}
	// Zero Ts delta (non-increasing) must error.
	bad := AppendPacked(nil, []Record{{Ts: 5, Te: 15, Agg: 9}})
	bad = append(bad, 0) // delta 0
	bad = AppendPacked(bad, nil)
	bad = append(bad, 10, 1)
	if _, _, err := DecodePacked(bad, 2); err == nil {
		t.Fatal("zero Ts delta accepted")
	}
	// Additions that would wrap past math.MaxInt64 must error: a Te beyond
	// it, and a Ts delta beyond it.
	wrapTe := binary.AppendVarint(nil, math.MaxInt64-5)
	wrapTe = binary.AppendUvarint(wrapTe, 10)
	wrapTe = binary.AppendVarint(wrapTe, 1)
	if recs, _, err := DecodePacked(wrapTe, 1); err == nil {
		t.Fatalf("Te overflow accepted: %v", recs)
	}
	wrapTs := AppendPacked(nil, []Record{{Ts: math.MaxInt64 - 20, Te: math.MaxInt64 - 10, Agg: 1}})
	wrapTs = binary.AppendUvarint(wrapTs, 30)
	wrapTs = binary.AppendUvarint(wrapTs, 1)
	wrapTs = binary.AppendVarint(wrapTs, 1)
	if recs, _, err := DecodePacked(wrapTs, 2); err == nil {
		t.Fatalf("Ts overflow accepted: %v", recs)
	}
	// The largest representable epoch still decodes.
	edge := []Record{{Ts: math.MaxInt64 - 20, Te: math.MaxInt64 - 10, Agg: 1}, {Ts: math.MaxInt64 - 10, Te: math.MaxInt64, Agg: 2}}
	if got, _, err := DecodePacked(AppendPacked(nil, edge), 2); err != nil || !reflect.DeepEqual(got, edge) {
		t.Fatalf("edge records: %v, %v", got, err)
	}
}
