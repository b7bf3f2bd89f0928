// Package obs is the repo's lightweight, dependency-free observability
// layer: a named registry of atomic counters, gauges and fixed-bucket
// latency histograms (counters and gauges may also be callbacks read at
// export time), plus request traces (span.go, ring.go).
//
// The paper's evaluation (Section 8) is built on counting work — node
// accesses, TIA page I/O, buffer hits. This package unifies those counters
// with wall-clock latency so every performance claim can be measured the
// same way: in tests and benchmarks through Snapshot, in a running service
// through the Prometheus text dump of WriteTo (served by cmd/tarserve at
// /metrics).
//
// Metric names may carry Prometheus-style labels embedded in the name, e.g.
//
//	tartree_tia_probes_total{backend="btree"}
//
// Registry getters are idempotent: asking twice for the same name returns
// the same metric, so independent subsystems can share one registry without
// coordination. All metric operations are safe for concurrent use.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets is the default histogram bucket layout for query
// latencies: roughly exponential from 10µs to 2.5s.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. Bounds
// are inclusive upper bounds; observations above the last bound land in an
// implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// NewHistogram returns a standalone histogram not attached to any registry
// (nil bounds select LatencyBuckets). Useful for one-shot distributions,
// e.g. the latency of a single benchmark batch.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return newHistogram(bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket counts (the last entry
// is the +Inf bucket).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank. Observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	return bucketQuantile(h.bounds, h.BucketCounts(), q)
}

// bucketQuantile is the shared quantile estimator over (bounds, counts)
// pairs — used by live Histograms and by HistogramSnapshot values restored
// from JSON or produced by callback histograms.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) { // +Inf bucket
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// HistogramSnapshot is the JSON-friendly view of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is +Inf
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Quantile estimates the q-quantile of a snapshot, with the same semantics
// as Histogram.Quantile.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return bucketQuantile(s.Bounds, s.Counts, q)
}

// Snapshot returns the histogram's current state with p50/p95/p99
// estimates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: h.Bounds(),
		Counts: h.BucketCounts(),
		Sum:    h.Sum(),
		Count:  h.Count(),
		P50:    h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
	}
}

// metric is anything the registry can hold.
type metric interface{ metricType() string }

func (*Counter) metricType() string   { return "counter" }
func (*Gauge) metricType() string     { return "gauge" }
func (*Histogram) metricType() string { return "histogram" }

// counterFunc and gaugeFunc are callback metrics: their value is read at
// export time (expvar style), so existing counters — tia probe totals,
// factory page stats, runtime stats — can be published without rewiring.
type counterFunc func() int64

func (counterFunc) metricType() string { return "counter" }

type gaugeFunc func() float64

func (gaugeFunc) metricType() string { return "gauge" }

// histogramFunc is a callback histogram: its whole snapshot is produced at
// export time. The runtime-telemetry collector uses it to publish
// distributions the Go runtime maintains itself (GC pauses, scheduler
// latencies) without double bookkeeping.
type histogramFunc func() HistogramSnapshot

func (histogramFunc) metricType() string { return "histogram" }

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	order   []string
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// get returns the existing metric under name or registers the one built by
// mk. A name registered with a different metric type panics: that is a
// programming error, not a runtime condition.
func (r *Registry) get(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	m := r.get(name, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.metricType()))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.get(name, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.metricType()))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if absent (nil selects LatencyBuckets). Bounds of
// an existing histogram are kept.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	m := r.get(name, func() metric {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		return newHistogram(bounds)
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.metricType()))
	}
	return h
}

// CounterFunc registers a callback counter whose value is read at export
// time. Re-registering the same name replaces the callback.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = counterFunc(fn)
}

// GaugeFunc registers a callback gauge whose value is read at export time.
// Re-registering the same name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = gaugeFunc(fn)
}

// HistogramFunc registers a callback histogram whose snapshot is produced at
// export time. Re-registering the same name replaces the callback.
func (r *Registry) HistogramFunc(name string, fn func() HistogramSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = histogramFunc(fn)
}

// snapshotMetrics copies the name→metric map under the lock so exports
// don't hold it while formatting.
func (r *Registry) snapshotMetrics() ([]string, map[string]metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	ms := make(map[string]metric, len(r.metrics))
	for k, v := range r.metrics {
		ms[k] = v
	}
	return names, ms
}

// splitName separates an embedded label set from the metric name:
// `foo{a="b"}` → `foo`, `a="b"`.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// escapeLabelValue escapes a raw label value for the text exposition
// format: backslash, double quote and newline must be written as \\, \"
// and \n or scrapers mis-parse the line.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// parseLabels splits an embedded label set `a="b",c="d"` into key/raw-value
// pairs, honoring backslash escapes inside quoted values (\\, \", \n; an
// unknown escape keeps both characters). ok is false when the string does
// not parse, in which case the caller should fall back to emitting it
// verbatim.
func parseLabels(labels string) (pairs [][2]string, ok bool) {
	s := labels
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, false
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte('\\')
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, false
		}
		pairs = append(pairs, [2]string{key, val.String()})
		if i == len(s) {
			return pairs, true
		}
		if s[i] != ',' || i+1 == len(s) {
			return nil, false
		}
		s = s[i+1:]
	}
	return pairs, true
}

// sanitizeLabels re-renders an embedded label set with every value
// properly escaped, so raw interpolation by callers (values carrying
// quotes, backslashes or newlines) cannot corrupt the exposition. A label
// string that does not parse is returned unchanged.
func sanitizeLabels(labels string) string {
	if labels == "" {
		return ""
	}
	pairs, ok := parseLabels(labels)
	if !ok {
		return labels
	}
	var b strings.Builder
	b.Grow(len(labels))
	for i, kv := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[1]))
		b.WriteByte('"')
	}
	return b.String()
}

// joinLabels merges an embedded label set with one extra label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	if extra == "" {
		return labels
	}
	return labels + "," + extra
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteTo renders the registry in the Prometheus text exposition format, in
// registration order. It implements io.WriterTo, so any test or benchmark
// can dump metrics with registry.WriteTo(os.Stderr).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	names, ms := r.snapshotMetrics()
	var total int64
	seenType := make(map[string]bool)
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	line := func(base, labels string, v float64) error {
		if labels != "" {
			return emit("%s{%s} %s\n", base, sanitizeLabels(labels), formatValue(v))
		}
		return emit("%s %s\n", base, formatValue(v))
	}
	for _, name := range names {
		m := ms[name]
		base, labels := splitName(name)
		if !seenType[base] {
			seenType[base] = true
			if err := emit("# TYPE %s %s\n", base, m.metricType()); err != nil {
				return total, err
			}
		}
		var err error
		switch m := m.(type) {
		case *Counter:
			err = line(base, labels, float64(m.Value()))
		case *Gauge:
			err = line(base, labels, m.Value())
		case counterFunc:
			err = line(base, labels, float64(m()))
		case gaugeFunc:
			err = line(base, labels, m())
		case *Histogram:
			err = writeHistogramLines(line, base, labels, m.Bounds(), m.BucketCounts(), m.Sum(), m.Count())
		case histogramFunc:
			s := m()
			err = writeHistogramLines(line, base, labels, s.Bounds, s.Counts, s.Sum, s.Count)
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// writeHistogramLines renders one histogram in the exposition format:
// cumulative le-labeled buckets, the +Inf bucket, sum and count. Bucket
// count slices are len(bounds)+1 (the extra entry is +Inf); shorter slices
// are tolerated and treated as zero-filled.
func writeHistogramLines(line func(base, labels string, v float64) error,
	base, labels string, bounds []float64, counts []int64, sum float64, count int64) error {
	var cum int64
	for i, b := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		if err := line(base+"_bucket", joinLabels(labels, fmt.Sprintf("le=%q", formatValue(b))), float64(cum)); err != nil {
			return err
		}
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	if err := line(base+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum)); err != nil {
		return err
	}
	if err := line(base+"_sum", labels, sum); err != nil {
		return err
	}
	return line(base+"_count", labels, float64(count))
}

// Snapshot returns a machine-readable view of every metric: counters as
// int64, gauges as float64, histograms as HistogramSnapshot. The result
// marshals cleanly to JSON (cmd/tarbench writes it into BENCH_*.json).
func (r *Registry) Snapshot() map[string]any {
	names, ms := r.snapshotMetrics()
	out := make(map[string]any, len(names))
	for _, name := range names {
		switch m := ms[name].(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case counterFunc:
			out[name] = m()
		case gaugeFunc:
			out[name] = m()
		case *Histogram:
			out[name] = m.Snapshot()
		case histogramFunc:
			out[name] = m()
		}
	}
	return out
}
