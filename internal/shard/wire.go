package shard

import (
	"encoding/binary"
	"errors"
	"math"

	"tartree/internal/core"
)

// The bodies of POST /v1/shard/query are fixed-width little-endian, as
// snapshot v3 is: floats travel as their IEEE bits, so a shard scores
// exactly the query the coordinator validated and the coordinator merges
// exactly the scores the shard computed.
//
// Query: "TSQ1", then x, y, k, α0, start, end, gmax, stamp.instance and
// stamp.seq, 8 bytes each. Reply (200 only): "TSR1", the candidate count,
// the QueryStats internal and leaf accesses, TIA accesses, TIA physical
// reads and scored entries, then per candidate core.Result poi, x, y,
// score, s0, s1 and agg. Every other reply is the httpapi JSON envelope.
const (
	queryMagic     = "TSQ1"
	replyMagic     = "TSR1"
	queryBodyLen   = 4 + 9*8
	replyHeaderLen = 4 + 6*8
	candidateLen   = 7 * 8
)

// The decoders' errors are fixed values, so a refused body allocates
// nothing.
var (
	errQueryBody = errors.New("want the 76-byte TSQ1 body")
	errReplyBody = errors.New("shard reply is not a TSR1 body of its declared length")
)

// appendQuery appends r's wire form to b.
func appendQuery(b []byte, r *queryRequest) []byte {
	b = append(b, queryMagic...)
	for _, v := range [...]uint64{
		math.Float64bits(r.X), math.Float64bits(r.Y), uint64(r.K), math.Float64bits(r.Alpha),
		uint64(r.Start), uint64(r.End), math.Float64bits(r.Gmax), r.Stamp.Instance, r.Stamp.Seq,
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// decodeQuery reads a query body; any other length or magic is refused.
func decodeQuery(b []byte) (queryRequest, error) {
	if len(b) != queryBodyLen || string(b[:4]) != queryMagic {
		return queryRequest{}, errQueryBody
	}
	f := func(i int) uint64 { return binary.LittleEndian.Uint64(b[4+8*i:]) }
	return queryRequest{
		X: math.Float64frombits(f(0)), Y: math.Float64frombits(f(1)), K: int(int64(f(2))),
		Alpha: math.Float64frombits(f(3)), Start: int64(f(4)), End: int64(f(5)),
		Gmax:  math.Float64frombits(f(6)),
		Stamp: core.GlobalStamp{Instance: f(7), Seq: f(8)},
	}, nil
}

// encodeReply returns r's wire form.
func encodeReply(r *queryResponse) []byte {
	b := make([]byte, 0, replyHeaderLen+candidateLen*len(r.Candidates))
	b = append(b, replyMagic...)
	st := &r.Stats
	for _, v := range [...]int64{
		int64(len(r.Candidates)), int64(st.InternalAccesses), int64(st.LeafAccesses),
		st.TIAAccesses, st.TIAPhysical, int64(st.Scored),
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, c := range r.Candidates {
		for _, v := range [...]uint64{
			uint64(c.POI.ID), math.Float64bits(c.POI.X), math.Float64bits(c.POI.Y), math.Float64bits(c.Score),
			math.Float64bits(c.S0), math.Float64bits(c.S1), uint64(c.Agg),
		} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

// decodeReply reads a reply body. It refuses a wrong magic and any length
// other than the header plus the declared count of candidates; the
// candidate slice is sized from the body's length, never from the count.
func decodeReply(b []byte) (queryResponse, error) {
	if len(b) < replyHeaderLen || string(b[:4]) != replyMagic || (len(b)-replyHeaderLen)%candidateLen != 0 {
		return queryResponse{}, errReplyBody
	}
	n := (len(b) - replyHeaderLen) / candidateLen
	f := func(i int) int64 { return int64(binary.LittleEndian.Uint64(b[4+8*i:])) }
	if f(0) != int64(n) {
		return queryResponse{}, errReplyBody
	}
	r := queryResponse{Candidates: make([]core.Result, n), Stats: core.QueryStats{
		InternalAccesses: int(f(1)), LeafAccesses: int(f(2)), TIAAccesses: f(3), TIAPhysical: f(4), Scored: int(f(5)),
	}}
	for i := range r.Candidates {
		c := b[replyHeaderLen+i*candidateLen:]
		g := func(j int) uint64 { return binary.LittleEndian.Uint64(c[8*j:]) }
		r.Candidates[i] = core.Result{
			POI:   core.POI{ID: int64(g(0)), X: math.Float64frombits(g(1)), Y: math.Float64frombits(g(2))},
			Score: math.Float64frombits(g(3)), S0: math.Float64frombits(g(4)),
			S1: math.Float64frombits(g(5)), Agg: int64(g(6)),
		}
	}
	return r, nil
}
