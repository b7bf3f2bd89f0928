package repl

import (
	"sync/atomic"
	"time"

	"tartree/internal/obs"
)

// Metrics publishes the replication telemetry into an obs.Registry. A nil
// *Metrics is valid and records nothing, matching the convention in
// internal/wal.
//
// On a follower it exports the replication SLO trio:
//
//	tartree_repl_applied_lsn    highest LSN applied locally
//	tartree_repl_lag_records    leader durable LSN − applied LSN (best known)
//	tartree_repl_lag_seconds    0 while caught up, else seconds since the
//	                            follower last was
//
// plus counters for records applied and reconnects. On a
// leader, counters for snapshots served, stream requests and records
// streamed.
type Metrics struct {
	// Leader side.
	SnapshotsServed *obs.Counter
	StreamRequests  *obs.Counter
	RecordsStreamed *obs.Counter

	// Follower side.
	RecordsApplied *obs.Counter
	Reconnects     *obs.Counter

	appliedLSN    atomic.Uint64
	leaderDurable atomic.Uint64
	// caughtUpSince is the UnixNano instant the follower last transitioned
	// to caught-up; 0 means it is behind and lag_seconds measures from
	// behindSince instead.
	caughtUp    atomic.Bool
	behindSince atomic.Int64
}

// NewMetrics registers the replication series in r. Pass nil to disable.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{
		SnapshotsServed: r.Counter("tartree_repl_snapshots_served_total"),
		StreamRequests:  r.Counter("tartree_repl_stream_requests_total"),
		RecordsStreamed: r.Counter("tartree_repl_records_streamed_total"),
		RecordsApplied:  r.Counter("tartree_repl_records_applied_total"),
		Reconnects:      r.Counter("tartree_repl_reconnects_total"),
	}
	m.caughtUp.Store(true)
	r.GaugeFunc("tartree_repl_applied_lsn", func() float64 {
		return float64(m.appliedLSN.Load())
	})
	r.GaugeFunc("tartree_repl_lag_records", func() float64 {
		applied, durable := m.appliedLSN.Load(), m.leaderDurable.Load()
		if durable <= applied {
			return 0
		}
		return float64(durable - applied)
	})
	r.GaugeFunc("tartree_repl_lag_seconds", func() float64 {
		if m.caughtUp.Load() {
			return 0
		}
		since := m.behindSince.Load()
		if since == 0 {
			return 0
		}
		return time.Since(time.Unix(0, since)).Seconds()
	})
	return m
}

// ObserveApplied records the follower's applied LSN and the freshest known
// leader durable LSN, updating the lag gauges.
func (m *Metrics) ObserveApplied(applied, leaderDurable uint64) {
	if m == nil {
		return
	}
	m.appliedLSN.Store(applied)
	if leaderDurable > m.leaderDurable.Load() {
		m.leaderDurable.Store(leaderDurable)
	}
	if applied >= m.leaderDurable.Load() {
		m.caughtUp.Store(true)
	} else if m.caughtUp.CompareAndSwap(true, false) {
		m.behindSince.Store(time.Now().UnixNano())
	}
}

// AppliedLSN returns the last observed applied LSN (0 on nil).
func (m *Metrics) AppliedLSN() uint64 {
	if m == nil {
		return 0
	}
	return m.appliedLSN.Load()
}

// LeaderDurableLSN returns the freshest leader durable LSN seen (0 on nil).
func (m *Metrics) LeaderDurableLSN() uint64 {
	if m == nil {
		return 0
	}
	return m.leaderDurable.Load()
}

func (m *Metrics) addSnapshotServed() {
	if m != nil {
		m.SnapshotsServed.Inc()
	}
}

func (m *Metrics) addStreamRequest() {
	if m != nil {
		m.StreamRequests.Inc()
	}
}

func (m *Metrics) addRecordsStreamed(n int) {
	if m != nil {
		m.RecordsStreamed.Add(int64(n))
	}
}

func (m *Metrics) addRecordsApplied(n int) {
	if m != nil {
		m.RecordsApplied.Add(int64(n))
	}
}

func (m *Metrics) addReconnect() {
	if m != nil {
		m.Reconnects.Inc()
	}
}
