package wal

import (
	"time"

	"tartree/internal/obs"
)

// batchBuckets sizes the batch-records histogram: powers of two, because
// group-commit batch sizes grow geometrically with fsync latency.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Metrics publishes the WAL's counters and latency histograms into an obs
// registry. A nil *Metrics is valid and records nothing, so the Log never
// branches on whether observability is wired up.
type Metrics struct {
	appends       *obs.Counter   // tartree_wal_appends_total
	records       *obs.Counter   // tartree_wal_records_total
	fsyncs        *obs.Counter   // tartree_wal_fsyncs_total
	batches       *obs.Counter   // tartree_wal_batches_total
	segments      *obs.Gauge     // tartree_wal_segments
	fsyncLat      *obs.Histogram // tartree_wal_fsync_latency_seconds
	fsyncStallLat *obs.Histogram // tartree_wal_fsync_stall_seconds
	checkpointLat *obs.Histogram // tartree_wal_checkpoint_duration_seconds
	batchRecords  *obs.Histogram // tartree_wal_batch_records
}

// NewMetrics registers the WAL metric family in reg. A nil registry yields a
// nil *Metrics, which every method accepts.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		appends:       reg.Counter("tartree_wal_appends_total"),
		records:       reg.Counter("tartree_wal_records_total"),
		fsyncs:        reg.Counter("tartree_wal_fsyncs_total"),
		batches:       reg.Counter("tartree_wal_batches_total"),
		segments:      reg.Gauge("tartree_wal_segments"),
		fsyncLat:      reg.Histogram("tartree_wal_fsync_latency_seconds", nil),
		fsyncStallLat: reg.Histogram("tartree_wal_fsync_stall_seconds", nil),
		checkpointLat: reg.Histogram("tartree_wal_checkpoint_duration_seconds", nil),
		batchRecords:  reg.Histogram("tartree_wal_batch_records", batchBuckets),
	}
}

func (m *Metrics) appendDone(records int) {
	if m == nil {
		return
	}
	m.appends.Inc()
	m.records.Add(int64(records))
}

func (m *Metrics) fsyncDone(d time.Duration) {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
	m.fsyncLat.Observe(d.Seconds())
}

// fsyncStall records how long one append request sat in the commit queue
// before its batch started — the price of riding someone else's fsync.
func (m *Metrics) fsyncStall(d time.Duration) {
	if m == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	m.fsyncStallLat.Observe(d.Seconds())
}

func (m *Metrics) batchDone(appends int, records int64) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchRecords.Observe(float64(records))
}

func (m *Metrics) setSegments(n int) {
	if m == nil {
		return
	}
	m.segments.Set(float64(n))
}

func (m *Metrics) checkpointDone(d time.Duration) {
	if m == nil {
		return
	}
	m.checkpointLat.Observe(d.Seconds())
}
