package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tartree/internal/pagestore"
	"tartree/internal/tia"
)

// benchBackends are the TIA backends the parallel benchmarks cover; the
// buffered disk backends are the interesting cases (shared buffer pools
// under concurrent access), mem is the contention-free ceiling, and
// btree-slowdisk adds simulated device latency so queries actually block
// on misses — the case where overlapping execution pays off even when
// hardware parallelism is scarce.
var benchBackends = []struct {
	name  string
	fac   func() (tia.Factory, *pagestore.SlowFile)
	delay time.Duration // applied after the build, before measuring
}{
	{"mem", func() (tia.Factory, *pagestore.SlowFile) { return tia.NewMemFactory(), nil }, 0},
	{"btree", func() (tia.Factory, *pagestore.SlowFile) { return tia.NewBTreeFactory(1024, 10), nil }, 0},
	{"mvbt", func() (tia.Factory, *pagestore.SlowFile) { return tia.NewMVBTFactory(1024, 10), nil }, 0},
	// Unbuffered (slots=0), as in the paper's buffering baseline: every
	// logical read is physical, so queries genuinely block on the device.
	{"btree-slowdisk", func() (tia.Factory, *pagestore.SlowFile) {
		sf := pagestore.NewSlowFile(pagestore.NewMemFile(1024), 0)
		return tia.NewBTreeFactoryWithFile(sf, 0), sf
	}, 50 * time.Microsecond},
}

func benchParallelTree(b *testing.B, g Grouping, fac tia.Factory) *Tree {
	b.Helper()
	opts := defaultOpts(g)
	opts.TIA = fac
	tr, _ := buildRandomTreeOpts(b, opts, 2000, 7)
	return tr
}

// benchQuery varies the query point but fixes interval, k, and alpha: the
// per-query work is then near-uniform, so throughput ratios between the
// parallel and serialized benchmarks measure scheduling, not query mix.
func benchQuery(r *rand.Rand) Query {
	return Query{
		X: r.Float64() * 100, Y: r.Float64() * 100,
		Iq:     tia.Interval{Start: 0, End: 200},
		K:      10,
		Alpha0: 0.3,
	}
}

// BenchmarkQueryParallel measures aggregate query throughput with one
// query stream per GOMAXPROCS worker (b.RunParallel), for every grouping ×
// TIA backend. Compare against BenchmarkQuerySerialized at the same -cpu
// to see the gain from removing the global query lock.
func BenchmarkQueryParallel(b *testing.B) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for _, be := range benchBackends {
			b.Run(g.String()+"/"+be.name, func(b *testing.B) {
				fac, slow := be.fac()
				tr := benchParallelTree(b, g, fac)
				if slow != nil {
					slow.SetDelay(be.delay)
				}
				var seed atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					r := rand.New(rand.NewSource(seed.Add(1)))
					for pb.Next() {
						if _, _, err := tr.QueryCtx(context.Background(), benchQuery(r), nil); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkQuerySerialized is the pre-concurrency baseline: the same
// parallel load, but a global mutex serializes query execution the way the
// old server-side lock did. The ratio of QueryParallel to QuerySerialized
// throughput at -cpu N is the scaling win.
func BenchmarkQuerySerialized(b *testing.B) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for _, be := range benchBackends {
			b.Run(g.String()+"/"+be.name, func(b *testing.B) {
				fac, slow := be.fac()
				tr := benchParallelTree(b, g, fac)
				if slow != nil {
					slow.SetDelay(be.delay)
				}
				var mu sync.Mutex
				var seed atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					r := rand.New(rand.NewSource(seed.Add(1)))
					for pb.Next() {
						mu.Lock()
						_, _, err := tr.QueryCtx(context.Background(), benchQuery(r), nil)
						mu.Unlock()
						if err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}
