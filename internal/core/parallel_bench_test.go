package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tartree/internal/tia"
)

// benchBackends are the TIA backends the parallel benchmarks cover: the
// buffered disk backends share their buffer pools under concurrent access,
// and mem — what a serving tree is made of — is the contention-free case.
var benchBackends = []struct {
	name string
	fac  func() tia.Factory
}{
	{"mem", func() tia.Factory { return tia.NewMemFactory() }},
	{"btree", func() tia.Factory { return tia.NewBTreeFactory(1024, 10) }},
	{"mvbt", func() tia.Factory { return tia.NewMVBTFactory(1024, 10) }},
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
				tr := benchParallelTree(b, g, be.fac())
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
				tr := benchParallelTree(b, g, be.fac())
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
