package core

import (
	"context"

	"tartree/internal/tia"
)

// Querier is the one query surface every execution path implements: the
// local *Tree, the WAL-backed wal.Store (which wraps the tree in its store
// lock), the HTTP client in internal/client (which forwards the call to a
// remote tarserve), and the scatter-gather shard coordinator in
// internal/shard. Code that runs kNNTA queries — batch executors, the
// tarquery CLI, the server handler — accepts a Querier and stops caring
// where the index lives.
//
// Implementations must honor ctx (returning an error wrapping ErrCanceled
// on expiry), must validate q (returning an error wrapping ErrInvalid on
// bad input), and must fill opts.Explain when one is attached. A nil opts
// is equivalent to the zero QueryOpts.
type Querier interface {
	QueryCtx(ctx context.Context, q Query, opts *QueryOpts) ([]Result, QueryStats, error)
}

// GlobalMirrorRecords returns the per-epoch records of the global TIA that
// intersect iv, in ascending Ts order, read from memory. The slice is
// freshly allocated.
//
// This is the shard-side half of the distributed gmax exchange: a scalar
// per-shard gmax cannot be combined into the global normalizer under
// FuncSum (the per-epoch maxima may live on different shards in different
// epochs), but max-merging the shards' records rebuilds exactly the
// single-node global TIA, so the coordinator's Aggregate over the merge
// equals the single-node Gmax bit for bit.
func (t *Tree) GlobalMirrorRecords(iv tia.Interval) []tia.Record {
	var out []tia.Record
	for _, r := range t.global.Records() {
		if iv.Intersects(r) {
			out = append(out, r)
		}
	}
	return out
}
