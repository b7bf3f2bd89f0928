package tia

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Packed record encoding for snapshots: a TIA's sorted records compress to
// a varint stream exploiting that epochs are near-consecutive and short.
// Per record:
//
//	Ts   — first record: zigzag varint of the absolute value;
//	       later records: uvarint delta from the previous record's Ts
//	       (records are sorted strictly ascending, so the delta is > 0;
//	       it may pass math.MaxInt64, and is taken modulo 2^64)
//	Te   — uvarint of Te − Ts (epochs have positive length; modulo 2^64
//	       too)
//	Agg  — zigzag varint
//
// On the fixed epoch grids of the paper's datasets this packs a record into
// a few bytes instead of the 24 bytes of its struct form.

// AppendPacked appends the packed encoding of recs (sorted ascending by Ts,
// as Index.Records returns them) to dst and returns the extended slice.
func AppendPacked(dst []byte, recs []Record) []byte {
	prev := int64(0)
	for i, r := range recs {
		if i == 0 {
			dst = binary.AppendVarint(dst, r.Ts)
		} else {
			dst = binary.AppendUvarint(dst, uint64(r.Ts-prev))
		}
		prev = r.Ts
		dst = binary.AppendUvarint(dst, uint64(r.Te-r.Ts))
		dst = binary.AppendVarint(dst, r.Agg)
	}
	return dst
}

// DecodePacked decodes n packed records from b, returning the records and
// the remaining bytes: Ts strictly ascending, every epoch of positive
// length. Corrupt or truncated input yields an error, never a panic or a
// wrapped timestamp: every varint read is bounds-checked, every addition is
// checked against int64 overflow, and a count that the input
// could not hold at three bytes a record is rejected before the slice is
// allocated — at exactly n records, so a caller may keep it as it is.
func DecodePacked(b []byte, n int) ([]Record, []byte, error) {
	if n < 0 || n > len(b)/3 {
		return nil, nil, fmt.Errorf("tia: packed record count %d does not fit %d bytes", n, len(b))
	}
	recs := make([]Record, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		var ts int64
		if i == 0 {
			v, k := binary.Varint(b)
			if k <= 0 {
				return nil, nil, fmt.Errorf("tia: truncated packed Ts at record %d", i)
			}
			ts, b = v, b[k:]
		} else {
			d, k := binary.Uvarint(b)
			if k <= 0 {
				return nil, nil, fmt.Errorf("tia: truncated packed Ts delta at record %d", i)
			}
			if d == 0 {
				return nil, nil, fmt.Errorf("tia: non-increasing packed Ts at record %d", i)
			}
			if d > headroom(prev) {
				return nil, nil, fmt.Errorf("tia: packed Ts overflows at record %d", i)
			}
			ts, b = int64(uint64(prev)+d), b[k:]
		}
		prev = ts
		du, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, nil, fmt.Errorf("tia: truncated packed Te at record %d", i)
		}
		if du == 0 {
			return nil, nil, fmt.Errorf("tia: empty packed epoch at record %d", i)
		}
		if du > headroom(ts) {
			return nil, nil, fmt.Errorf("tia: packed Te overflows at record %d", i)
		}
		b = b[k:]
		agg, k := binary.Varint(b)
		if k <= 0 {
			return nil, nil, fmt.Errorf("tia: truncated packed Agg at record %d", i)
		}
		b = b[k:]
		recs = append(recs, Record{Ts: ts, Te: int64(uint64(ts) + du), Agg: agg})
	}
	return recs, b, nil
}

// headroom returns math.MaxInt64 − v, exact for every v: the largest
// uvarint delta a timestamp v can take without passing math.MaxInt64, up
// to 2^64 − 1 for the most negative v.
func headroom(v int64) uint64 { return uint64(math.MaxInt64) - uint64(v) }
