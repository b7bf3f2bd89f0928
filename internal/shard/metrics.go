package shard

import (
	"tartree/internal/obs"
)

// Metrics publishes the scatter-gather telemetry into an obs.Registry. A
// nil *Metrics is valid and records nothing (the internal/repl convention).
//
// Coordinator side:
//
//	tartree_shard_queries_total        distributed queries served
//	tartree_shard_fanout_total         shard query requests issued (one per
//	                                   shard per try of a query)
//	tartree_shard_gmax_fetches_total   global-TIA fetches (one GET
//	                                   /v1/shard/gmax per shard each)
//	tartree_shard_errors_total         queries failed by a shard
//	tartree_shard_straggler_seconds    slowest shard's query latency
//
// Shard side:
//
//	tartree_shard_candidates_total     candidates sent up
type Metrics struct {
	Queries     *obs.Counter
	Fanout      *obs.Counter
	GmaxFetches *obs.Counter
	Errors      *obs.Counter
	Straggler   *obs.Histogram

	Candidates *obs.Counter
}

// NewMetrics registers the shard series in r. Pass nil to disable.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Queries:     r.Counter("tartree_shard_queries_total"),
		Fanout:      r.Counter("tartree_shard_fanout_total"),
		GmaxFetches: r.Counter("tartree_shard_gmax_fetches_total"),
		Errors:      r.Counter("tartree_shard_errors_total"),
		Straggler:   r.Histogram("tartree_shard_straggler_seconds", nil),

		Candidates: r.Counter("tartree_shard_candidates_total"),
	}
}

func (m *Metrics) addQuery() {
	if m != nil {
		m.Queries.Inc()
	}
}

func (m *Metrics) addFanout(n int) {
	if m != nil {
		m.Fanout.Add(int64(n))
	}
}

func (m *Metrics) addGmaxFetch() {
	if m != nil {
		m.GmaxFetches.Inc()
	}
}

func (m *Metrics) addError() {
	if m != nil {
		m.Errors.Inc()
	}
}

func (m *Metrics) observeStraggler(sec float64) {
	if m != nil {
		m.Straggler.Observe(sec)
	}
}

func (m *Metrics) addCandidates(n int) {
	if m != nil {
		m.Candidates.Add(int64(n))
	}
}
