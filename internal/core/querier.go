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

// GlobalStamp names one state of a tree's global TIA. Seq goes up at every
// change of it (a flush or POI insert that raises a maximum, a rebuild, a
// snapshot load; not a POI delete, which leaves it loose), and Instance is
// drawn at random per tree, so a restarted process never repeats a stamp.
type GlobalStamp struct {
	Instance uint64 `json:"instance"`
	Seq      uint64 `json:"seq"`
}

// GlobalStamp returns the stamp of the global TIA as it stands.
func (t *Tree) GlobalStamp() GlobalStamp {
	return GlobalStamp{Instance: t.instance, Seq: t.globalSeq}
}

// GlobalRecords returns a copy of the global TIA's per-epoch records, in
// ascending Ts order. It is a shard's part of the distributed normalizer:
// scalar per-shard gmaxes do not combine under FuncSum (the per-epoch
// maxima may live on different shards), but max-merging the shards'
// records rebuilds exactly the single-node global TIA, whose Aggregate
// over any interval equals the single-node Gmax bit for bit.
func (t *Tree) GlobalRecords() []tia.Record {
	return append([]tia.Record(nil), t.global.Records()...)
}
