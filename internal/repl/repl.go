// Package repl implements WAL-shipping replication for the TAR-tree
// server: a leader ships its write-ahead log to any number of followers,
// which serve the same kNNTA queries from their own copy of the index —
// horizontal read scale with a precise consistency story.
//
// The design leans on two properties the storage layer already has. The
// WAL (internal/wal) assigns every check-in a monotonically increasing LSN
// and group-commits frames with CRC32C checksums, so "the leader's state at
// LSN n" is a well-defined, byte-reproducible thing. And snapshot v3 makes
// "the tree at LSN n" a cheap section-read artifact. Replication is then
// just two HTTP endpoints on the leader:
//
//	GET /v1/repl/snapshot          the tree encoded at the leader's
//	                               contiguous applied LSN (header
//	                               X-Tartree-Snapshot-Lsn)
//	GET /v1/repl/wal?from=<lsn>    CRC32C frames from that LSN through the
//	                               durable watermark, then a long-poll tail
//	                               of the live segment with rotation-safe
//	                               handoff (header X-Tartree-Durable-Lsn)
//
// Both require the shared replication token (Authorization: Bearer).
//
// A follower bootstraps by downloading the snapshot straight into its own
// WAL directory as an installed checkpoint (wal.InstallCheckpoint), so the
// completely ordinary OpenStore recovery path loads it; it then tails the
// stream and feeds every batch through wal.Store.ApplyReplicated — the same
// validate→append→apply path local ingest uses, which means result-cache
// invalidation, epoch flushes and freeze/refreeze work unchanged, and the
// follower keeps its own durable WAL copy. A restart therefore recovers
// locally (checkpoint + local segment replay) and resumes tailing from its
// own applied LSN — no re-bootstrap, no re-download.
//
// Consistency: a follower is always a prefix of the leader — exactly the
// records with LSN <= its applied watermark, applied in order. Clients that
// need read-your-writes echo the leader's ingest ack LSN as
// /v1/query?min_lsn=<lsn> on the follower, which parks on the Watermark
// until the record is applied (or the deadline passes → 504). Everything
// else reads whatever prefix the follower has — bounded staleness,
// observable as tartree_repl_lag_{records,seconds}.
package repl

import (
	"context"
	"crypto/subtle"
	"net/http"
	"sync"
)

// Wire protocol headers and limits shared by leader and follower.
const (
	// HeaderSnapshotLSN carries the LSN a /v1/repl/snapshot body covers.
	HeaderSnapshotLSN = "X-Tartree-Snapshot-Lsn"
	// HeaderDurableLSN carries the leader's durable watermark at the moment
	// a /v1/repl/wal response started.
	HeaderDurableLSN = "X-Tartree-Durable-Lsn"
	// HeaderOldestLSN carries the oldest LSN still in the leader's log on a
	// 410 Gone response — what the follower lost to checkpoint truncation.
	HeaderOldestLSN = "X-Tartree-Oldest-Lsn"
)

// Authorized checks the request's bearer token against the shared secret
// in constant time. An empty configured token never authorizes anything:
// replication endpoints are enabled by configuring a token, not by leaving
// it blank.
func Authorized(r *http.Request, token string) bool {
	if token == "" {
		return false
	}
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) <= len(prefix) || h[:len(prefix)] != prefix {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(token)) == 1
}

// Watermark publishes a monotonically increasing applied LSN and lets
// readers block until it reaches a target — the read-your-writes primitive
// behind /v1/query?min_lsn=. On a follower the tail loop advances it after
// every applied batch; on a leader the ingest handler advances it after
// every acknowledged request, so min_lsn works identically on both roles.
type Watermark struct {
	mu sync.Mutex
	v  uint64
	ch chan struct{} // closed and replaced on every advance
}

// NewWatermark returns a watermark at 0.
func NewWatermark() *Watermark {
	return &Watermark{ch: make(chan struct{})}
}

// Value returns the current watermark.
func (w *Watermark) Value() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.v
}

// Advance raises the watermark to lsn and wakes waiters. Regressions are
// ignored — concurrent ingests can report the contiguous applied prefix
// out of order, and the watermark only ever moves forward.
func (w *Watermark) Advance(lsn uint64) {
	w.mu.Lock()
	if lsn > w.v {
		w.v = lsn
		close(w.ch)
		w.ch = make(chan struct{})
	}
	w.mu.Unlock()
}

// Wait blocks until the watermark reaches lsn or ctx ends.
func (w *Watermark) Wait(ctx context.Context, lsn uint64) error {
	for {
		w.mu.Lock()
		if w.v >= lsn {
			w.mu.Unlock()
			return nil
		}
		ch := w.ch
		w.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
