package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"tartree/internal/core"
	"tartree/internal/httpapi"
	"tartree/internal/obs"
)

// queryReply is one /v1/query answer. appendJSON writes it with the field
// names, order and number formatting that encoding/json gives its struct
// form (reply_test.go keeps that form and compares the bytes), without
// reflection or an intermediate copy of the results.
type queryReply struct {
	q         core.Query
	results   []core.Result
	stats     *core.QueryStats
	elapsedUS int64
	trace     []obs.SpanStat // trace=1 only
	explain   *core.Explain  // explain=1 only
}

// replyBufs recycles reply buffers; one grown past maxPooledReply by a huge
// k is left to the collector.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 64 << 10

// write sends the reply, or the 500 envelope when it cannot be encoded.
func (r *queryReply) write(w http.ResponseWriter) {
	buf := replyBufs.Get().(*[]byte)
	body, err := r.appendJSON((*buf)[:0])
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encoding reply: %w", err))
	} else {
		httpapi.WriteBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledReply {
		*buf = body
		replyBufs.Put(buf)
	}
}

// jsonAppender appends JSON values, each behind the literal text before it;
// err keeps the first value with no JSON form.
type jsonAppender struct {
	b   []byte
	err error
}

func (a *jsonAppender) int(pre string, v int64) {
	a.b = strconv.AppendInt(append(a.b, pre...), v, 10)
}

// float formats v exactly as encoding/json formats a float64.
func (a *jsonAppender) float(pre string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		a.err = cmp.Or(a.err, fmt.Errorf("the reply holds the non-finite number %v", v))
		return
	}
	verb := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		verb = 'e'
	}
	a.b = strconv.AppendFloat(append(a.b, pre...), v, verb, -1, 64)
	if n := len(a.b); verb == 'e' && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1] // e-07 → e-7
		a.b = a.b[:n-1]
	}
}

func (a *jsonAppender) marshal(pre string, v any) {
	j, err := json.Marshal(v)
	a.err = cmp.Or(a.err, err)
	a.b = append(append(a.b, pre...), j...)
}

// appendJSON appends the reply and a newline to b. A non-nil error means
// the bytes are not a reply and nothing of them may be sent.
func (r *queryReply) appendJSON(b []byte) ([]byte, error) {
	a := jsonAppender{b: b}
	a.float(`{"query":{"x":`, r.q.X)
	a.float(`,"y":`, r.q.Y)
	a.int(`,"k":`, int64(r.q.K))
	a.float(`,"alpha0":`, r.q.Alpha0)
	a.int(`,"start":`, r.q.Iq.Start)
	a.int(`,"end":`, r.q.Iq.End)
	a.b = append(a.b, `},"results":[`...)
	for i, res := range r.results {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.int(`{"poi":`, res.POI.ID)
		a.float(`,"x":`, res.POI.X)
		a.float(`,"y":`, res.POI.Y)
		a.float(`,"score":`, res.Score)
		a.float(`,"s0":`, res.S0)
		a.float(`,"s1":`, res.S1)
		a.int(`,"agg":`, res.Agg)
		a.b = append(a.b, '}')
	}
	st := r.stats
	a.int(`],"stats":{"internal_accesses":`, int64(st.InternalAccesses))
	a.int(`,"leaf_accesses":`, int64(st.LeafAccesses))
	a.int(`,"tia_accesses":`, st.TIAAccesses)
	a.int(`,"tia_physical":`, st.TIAPhysical)
	a.int(`,"scored":`, int64(st.Scored))
	a.int(`,"node_accesses":`, st.NodeAccesses())
	a.int(`,"cache_hits":`, st.CacheHits)
	a.int(`,"cache_misses":`, st.CacheMisses)
	a.b = strconv.AppendBool(append(a.b, `,"result_cache_hit":`...), st.ResultCacheHit)
	a.int(`},"elapsed_us":`, r.elapsedUS)
	if len(r.trace) > 0 {
		rows := make(map[string]obs.SpanStats, len(r.trace))
		for _, row := range r.trace {
			rows[row.Name] = row.SpanStats
		}
		a.marshal(`,"trace":`, rows)
	}
	if r.explain != nil {
		a.marshal(`,"explain":`, r.explain)
	}
	a.b = append(a.b, "}\n"...)
	return a.b, a.err
}
