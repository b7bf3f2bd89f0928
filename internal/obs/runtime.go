package obs

import (
	"math"
	rm "runtime/metrics"
	"sync"
	"time"
)

// runtime.go publishes the Go runtime's own telemetry — GC pause and
// scheduler-latency histograms, heap and goroutine gauges — into a Registry
// via the runtime/metrics package. The paper's evaluation counts index work;
// these series cover the other half of "where did the time go?": stop-the-
// world pauses stretching a query's tail latency, heap growth from TIA
// buffers, goroutine pileups behind the admission semaphore.
//
// All values are read through one cached sampler, so a /metrics scrape costs
// a single runtime/metrics.Read regardless of how many series are
// registered, and every exported gauge is from the same consistent sample.

// runtimeGauges, runtimeCounters and runtimeHistograms map the
// runtime/metrics names we want to the metric names they are exported
// under. Registration is capability-based: names the running Go version
// does not provide are skipped, so the collector works across toolchain
// versions.
var runtimeGauges = []struct{ runtime, metric string }{
	{"/sched/goroutines:goroutines", "go_goroutines"},
	{"/sched/gomaxprocs:threads", "go_gomaxprocs"},
	{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes"},
	{"/memory/classes/total:bytes", "go_memory_total_bytes"},
	{"/gc/heap/goal:bytes", "go_gc_heap_goal_bytes"},
}

var runtimeCounters = []struct{ runtime, metric string }{
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total"},
	{"/gc/heap/allocs:bytes", "go_heap_allocs_bytes_total"},
}

var runtimeHistograms = []struct{ runtime, metric string }{
	{"/sched/pauses/total/gc:seconds", "go_gc_pauses_seconds"},
	{"/sched/latencies:seconds", "go_sched_latencies_seconds"},
}

// maxRuntimeBuckets bounds the exposition size of runtime histograms: the
// runtime maintains hundreds of fine-grained buckets, which would dominate
// /metrics output; adjacent buckets are merged down to this many.
const maxRuntimeBuckets = 24

// runtimeSampler caches one runtime/metrics read for a short TTL so that a
// scrape touching a dozen series pays for one Read, and concurrent scrapes
// do not stampede the runtime.
type runtimeSampler struct {
	mu      sync.Mutex
	samples []rm.Sample
	index   map[string]int
	last    time.Time
	ttl     time.Duration
}

func newRuntimeSampler(names []string, ttl time.Duration) *runtimeSampler {
	s := &runtimeSampler{
		samples: make([]rm.Sample, len(names)),
		index:   make(map[string]int, len(names)),
		ttl:     ttl,
	}
	for i, n := range names {
		s.samples[i].Name = n
		s.index[n] = i
	}
	return s
}

// value returns the current sample for a runtime metric name, refreshing the
// cached read when it is older than the TTL.
func (s *runtimeSampler) value(name string) rm.Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.last) > s.ttl {
		rm.Read(s.samples)
		s.last = time.Now()
	}
	i, ok := s.index[name]
	if !ok {
		return rm.Value{}
	}
	return s.samples[i].Value
}

// float64Value converts a runtime/metrics value to float64 (0 for kinds we
// do not expect).
func float64Value(v rm.Value) float64 {
	switch v.Kind() {
	case rm.KindUint64:
		return float64(v.Uint64())
	case rm.KindFloat64:
		return v.Float64()
	default:
		return 0
	}
}

// snapshotFromRuntimeHistogram converts a runtime/metrics Float64Histogram
// (counts between bucket boundaries, possibly ±Inf at the edges) into a
// HistogramSnapshot (inclusive upper bounds plus a trailing +Inf bucket),
// merging adjacent buckets down to maxRuntimeBuckets. The sum is estimated
// from bucket midpoints — the runtime does not track it — which is fine for
// the quantile consumers of these series.
func snapshotFromRuntimeHistogram(h *rm.Float64Histogram) HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return s
	}
	// Raw conversion: bucket i covers (Buckets[i], Buckets[i+1]]; its upper
	// edge becomes the inclusive bound. A +Inf upper edge becomes the
	// overflow bucket.
	bounds := make([]float64, 0, len(h.Counts))
	counts := make([]int64, 0, len(h.Counts)+1)
	var infCount int64
	var sum float64
	for i, c := range h.Counts {
		hi := h.Buckets[i+1]
		lo := h.Buckets[i]
		if math.IsInf(hi, 1) {
			infCount += int64(c)
			if c > 0 && !math.IsInf(lo, -1) {
				sum += float64(c) * lo
			}
			continue
		}
		bounds = append(bounds, hi)
		counts = append(counts, int64(c))
		if c > 0 {
			mid := hi
			if !math.IsInf(lo, -1) {
				mid = (lo + hi) / 2
			}
			sum += float64(c) * mid
		}
	}
	// Merge adjacent buckets down to the cap; the merged bucket keeps the
	// group's upper edge, so cumulative counts stay exact at the surviving
	// boundaries.
	if len(bounds) > maxRuntimeBuckets {
		stride := (len(bounds) + maxRuntimeBuckets - 1) / maxRuntimeBuckets
		mb := make([]float64, 0, maxRuntimeBuckets)
		mc := make([]int64, 0, maxRuntimeBuckets+1)
		for i := 0; i < len(bounds); i += stride {
			end := i + stride
			if end > len(bounds) {
				end = len(bounds)
			}
			var c int64
			for j := i; j < end; j++ {
				c += counts[j]
			}
			mb = append(mb, bounds[end-1])
			mc = append(mc, c)
		}
		bounds, counts = mb, mc
	}
	counts = append(counts, infCount)
	var total int64
	for _, c := range counts {
		total += c
	}
	s = HistogramSnapshot{Bounds: bounds, Counts: counts, Sum: sum, Count: total}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// RegisterRuntimeMetrics publishes the Go runtime's telemetry into r: the
// GC pause and scheduler-latency histograms, heap/goroutine/GC gauges and
// counters. Series the running toolchain does not provide are skipped. All
// callbacks read through one cached sample (1s TTL), so scrapes are cheap
// and internally consistent.
func RegisterRuntimeMetrics(r *Registry) {
	registerRuntimeMetrics(r, time.Second)
}

func registerRuntimeMetrics(r *Registry, ttl time.Duration) {
	available := make(map[string]bool)
	for _, d := range rm.All() {
		available[d.Name] = true
	}
	var names []string
	for _, list := range [][]struct{ runtime, metric string }{runtimeGauges, runtimeCounters, runtimeHistograms} {
		for _, m := range list {
			if available[m.runtime] {
				names = append(names, m.runtime)
			}
		}
	}
	s := newRuntimeSampler(names, ttl)

	for _, g := range runtimeGauges {
		if rn := g.runtime; available[rn] {
			r.GaugeFunc(g.metric, func() float64 { return float64Value(s.value(rn)) })
		}
	}
	for _, c := range runtimeCounters {
		if rn := c.runtime; available[rn] {
			r.CounterFunc(c.metric, func() int64 { return int64(float64Value(s.value(rn))) })
		}
	}
	for _, h := range runtimeHistograms {
		if rn := h.runtime; available[rn] {
			r.HistogramFunc(h.metric, func() HistogramSnapshot {
				v := s.value(rn)
				if v.Kind() != rm.KindFloat64Histogram {
					return HistogramSnapshot{}
				}
				return snapshotFromRuntimeHistogram(v.Float64Histogram())
			})
		}
	}
}
