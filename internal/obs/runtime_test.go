package obs

import (
	"bytes"
	"math"
	"runtime"
	rm "runtime/metrics"
	"strings"
	"testing"
	"time"
)

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	registerRuntimeMetrics(r, 0) // zero TTL: every read re-samples
	runtime.GC()                 // ensure at least one GC cycle is recorded

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"go_goroutines ",
		"go_gomaxprocs ",
		"go_memory_total_bytes ",
		"go_gc_cycles_total ",
		`go_gc_pauses_seconds_bucket{le="+Inf"}`,
		"go_gc_pauses_seconds_count ",
		`go_sched_latencies_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	snap := r.Snapshot()
	if g, ok := snap["go_goroutines"].(float64); !ok || g < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", snap["go_goroutines"])
	}
	if c, ok := snap["go_gc_cycles_total"].(int64); !ok || c < 1 {
		t.Errorf("go_gc_cycles_total = %v, want >= 1", snap["go_gc_cycles_total"])
	}
	hs, ok := snap["go_gc_pauses_seconds"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("go_gc_pauses_seconds snapshot is %T", snap["go_gc_pauses_seconds"])
	}
	if hs.Count < 1 {
		t.Errorf("gc pause histogram count %d, want >= 1 after runtime.GC", hs.Count)
	}
	if len(hs.Bounds) > maxRuntimeBuckets {
		t.Errorf("gc pause histogram has %d buckets, want <= %d", len(hs.Bounds), maxRuntimeBuckets)
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Errorf("counts/bounds mismatch: %d vs %d", len(hs.Counts), len(hs.Bounds))
	}
}

func TestRuntimeSamplerCaches(t *testing.T) {
	s := newRuntimeSampler([]string{"/sched/goroutines:goroutines"}, time.Hour)
	v1 := s.value("/sched/goroutines:goroutines")
	if v1.Kind() != rm.KindUint64 {
		t.Fatalf("goroutines kind %v", v1.Kind())
	}
	first := s.last
	s.value("/sched/goroutines:goroutines")
	if s.last != first {
		t.Fatal("sampler re-read within TTL")
	}
	// Unknown names return the zero Value rather than panicking.
	if got := s.value("/no/such:metric"); got.Kind() != rm.KindBad {
		t.Fatalf("unknown metric kind %v, want KindBad", got.Kind())
	}
}

func TestSnapshotFromRuntimeHistogram(t *testing.T) {
	// Buckets: (-Inf,1] (1,2] (2,+Inf) with counts 2,3,5.
	h := &rm.Float64Histogram{
		Counts:  []uint64{2, 3, 5},
		Buckets: []float64{math.Inf(-1), 1, 2, math.Inf(1)},
	}
	s := snapshotFromRuntimeHistogram(h)
	if s.Count != 10 {
		t.Fatalf("count %d, want 10", s.Count)
	}
	if len(s.Bounds) != 2 || s.Bounds[0] != 1 || s.Bounds[1] != 2 {
		t.Fatalf("bounds %v, want [1 2]", s.Bounds)
	}
	if len(s.Counts) != 3 || s.Counts[0] != 2 || s.Counts[1] != 3 || s.Counts[2] != 5 {
		t.Fatalf("counts %v, want [2 3 5]", s.Counts)
	}
	// Quantiles on the converted snapshot: q=0.2 falls in the first bucket.
	if q := s.Quantile(0.2); q != 1 {
		t.Fatalf("q0.2 = %v, want 1", q)
	}
	// Overflow-bucket quantiles clamp to the highest finite bound.
	if q := s.Quantile(0.99); q != 2 {
		t.Fatalf("q0.99 = %v, want 2 (clamped to last finite bound)", q)
	}

	// Nil and malformed inputs return an empty snapshot.
	if s := snapshotFromRuntimeHistogram(nil); s.Count != 0 {
		t.Fatal("nil histogram should be empty")
	}
	bad := &rm.Float64Histogram{Counts: []uint64{1}, Buckets: []float64{0}}
	if s := snapshotFromRuntimeHistogram(bad); s.Count != 0 {
		t.Fatal("malformed histogram should be empty")
	}
}

func TestSnapshotFromRuntimeHistogramMerges(t *testing.T) {
	// 100 buckets merge down to <= maxRuntimeBuckets with counts preserved.
	n := 100
	h := &rm.Float64Histogram{
		Counts:  make([]uint64, n),
		Buckets: make([]float64, n+1),
	}
	var want int64
	for i := 0; i < n; i++ {
		h.Counts[i] = uint64(i)
		want += int64(i)
		h.Buckets[i] = float64(i)
	}
	h.Buckets[n] = float64(n)
	s := snapshotFromRuntimeHistogram(h)
	if len(s.Bounds) > maxRuntimeBuckets {
		t.Fatalf("merged to %d buckets, want <= %d", len(s.Bounds), maxRuntimeBuckets)
	}
	if s.Count != want {
		t.Fatalf("count %d, want %d", s.Count, want)
	}
	// Upper edge of the last merged bucket is the original last finite bound.
	if s.Bounds[len(s.Bounds)-1] != float64(n) {
		t.Fatalf("last bound %v, want %v", s.Bounds[len(s.Bounds)-1], float64(n))
	}
}
