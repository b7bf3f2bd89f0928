package obs

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// ExplainSummary is the compact form of a query's EXPLAIN/ANALYZE carried
// as an attribute of its query's span: the planner's estimates (when a planner
// ran), the search actuals, and the signed relative node-access error.
// It is a neutral struct — internal/obs depends on nothing, so core
// condenses its full explain recorder into this shape.
type ExplainSummary struct {
	// Engine and the estimates are zero when the query ran unplanned.
	Engine            string  `json:"engine,omitempty"`
	EstimatedAccesses float64 `json:"est_node_accesses,omitempty"`
	EstimatedFk       float64 `json:"est_fk,omitempty"`
	// AccessError is the signed relative error of the node-access
	// estimate: (estimated − actual) / actual.
	AccessError float64 `json:"access_error,omitempty"`

	ActualAccesses int64   `json:"actual_node_accesses"`
	ActualFk       float64 `json:"actual_fk"`
	Pops           int     `json:"pops"`
	HeapMax        int     `json:"heap_max"`
	Frontier       int     `json:"frontier"`
	TIAReads       int64   `json:"tia_reads"`
	CacheHits      int64   `json:"cache_hits"`
	ResultCacheHit bool    `json:"result_cache_hit,omitempty"`
	// Truncated reports that the full recorder capped its pop log or
	// frontier snapshot; the scalar counts here are exact regardless.
	Truncated bool `json:"truncated,omitempty"`
}

// TraceRing is the in-memory TraceSink: it keeps the N most recent finished
// traces of any kind (requests, WAL commit batches, epoch flushes,
// checkpoints) and the N slowest query traces, answers Find by trace ID, and
// owns the slow-query log. Only query traces — those with a span carrying
// AttrQuery — compete for the slowest view and the log, so one long
// checkpoint cannot evict the slow queries. A nil *TraceRing discards
// traces; it is safe for concurrent use.
type TraceRing struct {
	mu       sync.Mutex
	buf      []*FinishedTrace // circular; pos is the next write index
	pos, n   int              // n traces stored (≤ cap)
	finished uint64           // traces ever delivered
	slowest  []*FinishedTrace // by root duration descending, ≤ cap entries

	slowLog       *slog.Logger
	slowThreshold time.Duration
}

// NewTraceRing creates a ring keeping the n most recent and n slowest
// traces. n < 1 is treated as 1.
func NewTraceRing(n int) *TraceRing {
	return &TraceRing{buf: make([]*FinishedTrace, max(n, 1))}
}

// Cap returns the ring capacity (0 on a nil ring).
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Len returns the number of traces in the recent view.
func (r *TraceRing) Len() int { return len(r.Traces()) }

// Finished returns the number of traces ever delivered.
func (r *TraceRing) Finished() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished
}

// SetSlowLog makes the ring log every query trace whose root span lasted
// threshold or longer to l at warn level. A nil logger disables the log.
func (r *TraceRing) SetSlowLog(l *slog.Logger, threshold time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slowLog, r.slowThreshold = l, threshold
	r.mu.Unlock()
}

// TraceFinished implements TraceSink. The oldest trace falls out of the
// recent view once the ring is full; the slowest view keeps the top query
// traces by root duration regardless of age.
func (r *TraceRing) TraceFinished(t *FinishedTrace) {
	if r == nil || len(t.Spans) == 0 {
		return
	}
	var query *SpanRecord
	for i := range t.Spans {
		if _, ok := t.Spans[i].Attr(AttrQuery); ok {
			query = &t.Spans[i]
			break
		}
	}
	elapsed := t.Spans[0].Duration()
	r.mu.Lock()
	r.buf[r.pos] = t
	r.pos = (r.pos + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
	r.finished++
	if query != nil {
		// Descending root duration, stable for ties.
		i := sort.Search(len(r.slowest), func(i int) bool {
			return r.slowest[i].Spans[0].Duration() < elapsed
		})
		if i < len(r.buf) {
			if len(r.slowest) < len(r.buf) {
				r.slowest = append(r.slowest, nil)
			}
			copy(r.slowest[i+1:], r.slowest[i:])
			r.slowest[i] = t
		}
	}
	log, threshold := r.slowLog, r.slowThreshold
	r.mu.Unlock()

	if query != nil && log != nil && elapsed >= threshold {
		attrs := []any{slog.String("trace_id", t.TraceID.String()), slog.Duration("elapsed", elapsed)}
		for _, key := range []string{AttrQuery, AttrResults, AttrError} {
			if v, ok := query.Attr(key); ok {
				attrs = append(attrs, slog.String(key, fmt.Sprint(v)))
			}
		}
		log.Warn("slow query", attrs...)
	}
}

// Traces returns the recent view, newest first.
func (r *TraceRing) Traces() []*FinishedTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*FinishedTrace, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.pos-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Slowest returns the slowest kept query traces, slowest first.
func (r *TraceRing) Slowest() []*FinishedTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*FinishedTrace(nil), r.slowest...)
}

// Find returns the newest kept trace with the given ID, recent view first,
// or nil.
func (r *TraceRing) Find(id TraceID) *FinishedTrace {
	for _, t := range append(r.Traces(), r.Slowest()...) {
		if t.TraceID == id {
			return t
		}
	}
	return nil
}
