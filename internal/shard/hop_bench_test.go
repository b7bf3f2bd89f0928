package shard

import (
	"context"
	"testing"

	"tartree/internal/lbsn"
)

// BenchmarkShardHop is the shard round trip as a layer: one
// Coordinator.Query against two shard servers on loopback over GS ×0.05 —
// both request bodies, the two calls, each shard's search and reply, and
// the decode and merge. The shards run in this process, so B/op and
// allocs/op are both sides of the hop.
func BenchmarkShardHop(b *testing.B) {
	d := testDataset(b)
	m, err := Partition(d.EffectivePOIs(0, 0), 2, d.World)
	if err != nil {
		b.Fatal(err)
	}
	urls, _ := buildFleet(b, d, m, lbsn.BuildOptions{}, nil)
	coord := &Coordinator{Shards: urls}
	queries := d.Queries(64, 10, 0.3, 1)
	ctx := context.Background()
	if _, _, _, err := coord.Query(ctx, queries[0]); err != nil { // fetches the global TIAs, compiles the layouts
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := coord.Query(ctx, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
