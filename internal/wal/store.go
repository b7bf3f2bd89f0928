package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/obs"
)

// checkpointTmp is the scratch name a checkpoint is written under before the
// atomic rename; a crash mid-write leaves it behind, harmlessly.
const checkpointTmp = "checkpoint.tmp"

// checkpointName formats the file name of a checkpoint covering every record
// with LSN <= lsn.
func checkpointName(lsn uint64) string {
	return fmt.Sprintf("checkpoint-%016d.snap", lsn)
}

// parseCheckpointName extracts the covered LSN from a checkpoint file name.
func parseCheckpointName(name string) (uint64, bool) {
	var lsn uint64
	if n, err := fmt.Sscanf(name, "checkpoint-%016d.snap", &lsn); n != 1 || err != nil {
		return 0, false
	}
	if name != checkpointName(lsn) {
		return 0, false
	}
	return lsn, true
}

// CheckpointFileName formats the canonical file name of a checkpoint
// covering every record with LSN <= lsn.
func CheckpointFileName(lsn uint64) string { return checkpointName(lsn) }

// InstallCheckpoint atomically installs snapshot bytes from r as the
// checkpoint covering lsn: write to a scratch name, fsync, rename, fsync
// the directory. This is the bootstrap path of a replication follower — it
// seeds an empty WAL directory with the leader's snapshot so the normal
// OpenStore recovery loads it like any local checkpoint. A crash mid-write
// leaves only the scratch file, which recovery discards.
func InstallCheckpoint(fs FS, lsn uint64, r io.Reader) error {
	f, err := fs.Create(checkpointTmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(checkpointTmp, checkpointName(lsn)); err != nil {
		return err
	}
	return fs.SyncDir()
}

// DirHasState reports whether the directory already holds recoverable
// durable state — an installed checkpoint or WAL segments. A replication
// follower bootstraps only when it does not: a restart recovers locally
// instead of re-downloading the leader's snapshot.
func DirHasState(fs FS) (bool, error) {
	names, err := fs.List()
	if err != nil {
		return false, err
	}
	for _, name := range names {
		if _, ok := parseCheckpointName(name); ok {
			return true, nil
		}
		if _, ok := parseSegmentName(name); ok {
			return true, nil
		}
	}
	return false, nil
}

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// SegmentBytes and NoSync pass through to the log (LogOptions).
	SegmentBytes int64
	NoSync       bool
	// Metrics instruments both the WAL and the recovered tree.
	Metrics *obs.Registry
	// TraceSink receives span traces from the ingest pipeline: group-commit
	// batch traces (linking member ingests), epoch-flush and checkpoint
	// traces. Per-request ingest spans ride the caller's context (IngestCtx).
	TraceSink obs.TraceSink
	// Cache attaches a shared epoch-versioned result cache to the
	// recovered tree (nil disables). The store's locking makes it safe:
	// queries — the only writers of cache entries — run under the read
	// lock, mutations and their invalidation under the write lock.
	Cache *aggcache.Cache
	// SnapshotV3 is ignored: every checkpoint is the snapshot-v3 image, the
	// only format recovery reads. It stays only so existing literals
	// compile (untagged, so staticcheck's deprecation check passes them),
	// and goes once none sets it.
	SnapshotV3 bool
}

// RecoveryStats reports what OpenStore did to reach a serving state.
type RecoveryStats struct {
	// CheckpointLSN is the LSN covered by the loaded checkpoint (0 if none).
	CheckpointLSN uint64
	// CheckpointLoaded reports whether a checkpoint snapshot was found.
	CheckpointLoaded bool
	// Replay is the WAL scan that followed.
	Replay ReplayStats
}

// Store is a core.Tree whose ingestion path is durable: Ingest appends to
// the WAL, returns only after the records are fsynced (group commit), and
// then folds them into the tree. Queries run concurrently under a read
// lock; ingestion, epoch flushes, and checkpoint encoding take the write
// lock. OpenStore recovers the tree from the newest checkpoint plus a WAL
// replay, so a crash loses no acknowledged check-in.
type Store struct {
	fs   FS
	log  *Log
	m    *Metrics
	opts StoreOptions

	mu   sync.RWMutex // tree access: queries RLock, mutations Lock
	tree *core.Tree

	// Applied-LSN bookkeeping (guarded by mu). Group commit acknowledges
	// batches in LSN order but the per-call applies race to the write lock,
	// so applied ranges can arrive out of order; a checkpoint must cover
	// only the contiguous applied prefix or deleting WAL segments could
	// orphan a durable-but-unapplied record.
	appliedContig uint64
	appliedGaps   map[uint64]uint64 // first -> last of out-of-order applied ranges

	ckMu          sync.Mutex // serializes checkpoints
	checkpointLSN uint64     // LSN covered by the newest on-disk checkpoint

	recovery RecoveryStats
}

// OpenStore recovers a durable store from fs: load the newest checkpoint
// snapshot if one exists (otherwise build the base tree via base), replay
// the WAL records past it, and open the log for appends. base is only
// called when no checkpoint is found — typically it builds the tree from
// the historical dataset.
func OpenStore(fs FS, base func() (*core.Tree, error), opts StoreOptions) (*Store, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	var (
		ckName string
		ckLSN  uint64
		loaded bool
		stale  []string
	)
	for _, name := range names {
		if name == checkpointTmp {
			stale = append(stale, name) // torn checkpoint write; never renamed
			continue
		}
		if lsn, ok := parseCheckpointName(name); ok {
			if ckName != "" {
				stale = append(stale, ckName) // superseded by a newer one
			}
			ckName, ckLSN, loaded = name, lsn, true
		}
	}
	var tree *core.Tree
	if loaded {
		f, err := fs.Open(ckName)
		if err != nil {
			return nil, err
		}
		tree, err = core.LoadSnapshotObserved(f, nil, opts.Metrics, opts.Cache)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("wal: loading checkpoint %s: %w", ckName, err)
		}
	} else {
		tree, err = base()
		if err != nil {
			return nil, err
		}
	}
	for _, name := range stale {
		if err := fs.Remove(name); err != nil {
			return nil, err
		}
	}

	m := NewMetrics(opts.Metrics)
	log, err := OpenLog(fs, LogOptions{
		SegmentBytes: opts.SegmentBytes,
		NoSync:       opts.NoSync,
		Metrics:      m,
		TraceSink:    opts.TraceSink,
	}, ckLSN, func(lsn uint64, c CheckIn) error {
		return tree.AddCheckIn(c.POI, c.At)
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		fs:            fs,
		log:           log,
		m:             m,
		opts:          opts,
		tree:          tree,
		appliedContig: log.NextLSN() - 1, // replay applied everything contiguously
		appliedGaps:   make(map[uint64]uint64),
		checkpointLSN: ckLSN,
		recovery: RecoveryStats{
			CheckpointLSN:    ckLSN,
			CheckpointLoaded: loaded,
			Replay:           log.ReplayStats(),
		},
	}
	return s, nil
}

// ErrInvalid wraps Ingest rejections that happen before anything is logged:
// what core.Tree.ValidateCheckIn refuses. Servers map it to a client error;
// anything else from Ingest is an internal durability failure.
var ErrInvalid = errors.New("wal: invalid check-in")

// Recovery reports what OpenStore replayed.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Tree returns the store's tree for direct reads of facets ingestion never
// mutates — Len, Grouping, Epochs, node counts. Anything the ingest path
// touches (pending check-ins, TIA contents, queries) must go through
// Query/QueryCtx/View, which take the store's read lock.
func (s *Store) Tree() *core.Tree { return s.tree }

// Log exposes the underlying write-ahead log (benchmarks and tests).
func (s *Store) Log() *Log { return s.log }

// DurableLSN returns the highest LSN known durable.
func (s *Store) DurableLSN() uint64 { return s.log.DurableLSN() }

// AppliedLSN returns the contiguous applied prefix: every record with LSN
// <= AppliedLSN is folded into the tree.
func (s *Store) AppliedLSN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appliedContig
}

// Ingest durably records the check-ins and folds them into the tree,
// returning the LSN of the last one. It returns only after the records —
// and everything group-committed with them — are on disk; on error nothing
// was acknowledged and the tree is untouched.
func (s *Store) Ingest(cs []CheckIn) (uint64, error) {
	return s.IngestCtx(context.Background(), cs)
}

// IngestCtx is Ingest with trace context: when ctx carries a span, the
// pipeline stages are recorded as children — validate, wal_append (with its
// fsync_batch durable wait), apply — giving each acknowledged batch a
// complete latency decomposition.
func (s *Store) IngestCtx(ctx context.Context, cs []CheckIn) (uint64, error) {
	if len(cs) == 0 {
		return s.log.DurableLSN(), nil
	}
	parent := obs.SpanFromContext(ctx)
	// Validate before logging so the post-durability apply cannot fail:
	// AddCheckIn refuses exactly what ValidateCheckIn refuses — an unknown
	// POI, or a time outside every epoch of the grid (before the origin, or
	// in an epoch that would end past math.MaxInt64) — and both are stable
	// under concurrent ingest (the WAL path never deletes POIs).
	vs := parent.StartChild("validate")
	vs.SetAttr("records", len(cs))
	s.mu.RLock()
	var verr error
	for _, c := range cs {
		if err := s.tree.ValidateCheckIn(c.POI, c.At); err != nil {
			verr = fmt.Errorf("%w: %v", ErrInvalid, err)
			break
		}
	}
	s.mu.RUnlock()
	vs.End()
	if verr != nil {
		return 0, verr
	}

	ws := parent.StartChild("wal_append")
	last, err := s.log.AppendCtx(obs.ContextWithSpan(ctx, ws), cs) // blocks until durable
	ws.End()
	if err != nil {
		return 0, err
	}
	first := last - uint64(len(cs)) + 1

	as := parent.StartChild("apply")
	as.SetAttr("first_lsn", first)
	as.SetAttr("last_lsn", last)
	defer as.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cs {
		if err := s.tree.AddCheckIn(c.POI, c.At); err != nil {
			// Unreachable by construction; surface loudly rather than lose
			// a durable record silently.
			return 0, fmt.Errorf("wal: applying durable LSN range [%d,%d]: %w", first, last, err)
		}
	}
	s.markApplied(first, last)
	return last, nil
}

// ApplyReplicated ingests a batch received from a replication leader,
// asserting it carries exactly the LSNs this store assigns next — the
// follower's log must be a byte-for-byte copy of the leader's record
// stream, so any discontinuity is divergence and fails loudly instead of
// silently renumbering. The batch is durable locally (group commit) and
// folded into the tree like any local ingest, so cache invalidation, epoch
// flushes and checkpoints work unchanged.
//
// The caller must be the store's only writer (a follower rejects local
// ingest), which makes the next-LSN check race-free.
func (s *Store) ApplyReplicated(first uint64, cs []CheckIn) (uint64, error) {
	if len(cs) == 0 {
		return s.AppliedLSN(), nil
	}
	if next := s.log.NextLSN(); next != first {
		return 0, fmt.Errorf("wal: replicated batch starts at LSN %d, log expects %d", first, next)
	}
	return s.Ingest(cs)
}

// EncodeSnapshot encodes a consistent snapshot-v3 image of the tree and
// returns the encoded bytes plus the exact LSN they cover: the contiguous
// applied prefix at encode time. A replication follower that installs these
// bytes as a checkpoint and then tails the WAL from the returned LSN + 1
// reconstructs the leader's tree exactly.
func (s *Store) EncodeSnapshot() ([]byte, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.encodeLocked()
	if err != nil {
		return nil, 0, err
	}
	return b, s.appliedContig, nil
}

// encodeLocked encodes the tree's snapshot-v3 image; the caller holds mu
// for reading. SaveSnapshot only reads the tree, even without an installed
// frozen layout (it compiles a temporary one), so the read lock suffices.
func (s *Store) encodeLocked() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.tree.SaveSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// markApplied records that LSNs [first,last] are folded into the tree and
// advances the contiguous prefix, draining any out-of-order ranges that now
// connect. Caller holds mu.
func (s *Store) markApplied(first, last uint64) {
	if first != s.appliedContig+1 {
		s.appliedGaps[first] = last
		return
	}
	s.appliedContig = last
	for {
		end, ok := s.appliedGaps[s.appliedContig+1]
		if !ok {
			return
		}
		delete(s.appliedGaps, s.appliedContig+1)
		s.appliedContig = end
	}
}

// QueryCtx answers a TAR query under the read lock with cancellation,
// deadline and per-query options — the context-aware entry point servers
// use. See core.(*Tree).QueryCtx.
func (s *Store) QueryCtx(ctx context.Context, q core.Query, opts *core.QueryOpts) ([]core.Result, core.QueryStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.QueryCtx(ctx, q, opts)
}

// View runs f with the tree under the read lock; f must not mutate the tree
// or retain it past the call.
func (s *Store) View(f func(t *core.Tree)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f(s.tree)
}

// Freeze pre-warms the tree's compiled flat layout so the first query does
// not pay for the compile. The WAL ingest path never mutates tree structure
// (check-ins only change TIA contents, which the layout's entries share),
// so the layout stays valid until an explicit rebuild; on a tree recovered
// from a v3 checkpoint, which arrives compiled, this is a no-op.
func (s *Store) Freeze() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tree.Freeze()
}

// FlushEpochs folds every buffered epoch ending at or before now into the
// tree's TIAs.
func (s *Store) FlushEpochs(now int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.FlushEpochs(now)
}

// FlushObserved folds every buffered epoch that has fully elapsed on the
// tree's own clock — the latest timestamp it has seen. Periodic flush loops
// use this so "now" advances with the ingested stream rather than wall time.
// When the store has a trace sink, each flush that runs is recorded as its
// own "epoch_flush" trace: the flush holds the write lock, so its duration
// is a direct query-latency tax worth seeing on a timeline.
func (s *Store) FlushObserved() error {
	sp := obs.StartTrace("epoch_flush", obs.SpanContext{}, s.opts.TraceSink)
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.tree.FlushEpochs(s.tree.Clock())
	sp.SetAttr("clock", s.tree.Clock())
	sp.Finish()
	return err
}

// Checkpoint writes a snapshot of the tree covering the contiguous applied
// prefix, atomically installs it, and deletes WAL segments and older
// checkpoints it supersedes. Returns the covered LSN. Concurrent calls are
// serialized; a call that would cover nothing new is a no-op.
func (s *Store) Checkpoint() (uint64, error) {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	start := time.Now()

	// Encode under the tree lock (pending check-ins travel in the
	// snapshot); all file I/O happens after release.
	s.mu.RLock()
	lsn := s.appliedContig
	if lsn == s.checkpointLSN {
		s.mu.RUnlock()
		return lsn, nil
	}
	ck := obs.StartTrace("checkpoint", obs.SpanContext{}, s.opts.TraceSink)
	ck.SetAttr("lsn", lsn)
	defer ck.Finish()
	enc := ck.StartChild("encode")
	img, err := s.encodeLocked()
	s.mu.RUnlock()
	enc.End()
	if err != nil {
		return 0, err
	}

	ws := ck.StartChild("write_install")
	defer ws.End()
	f, err := s.fs.Create(checkpointTmp)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	name := checkpointName(lsn)
	if err := s.fs.Rename(checkpointTmp, name); err != nil {
		return 0, err
	}
	if err := s.fs.SyncDir(); err != nil {
		return 0, err
	}

	// The new checkpoint is durable; everything it supersedes can go. A
	// crash in here leaves extra files that the next recovery or checkpoint
	// cleans up.
	prev := s.checkpointLSN
	s.checkpointLSN = lsn
	if prev > 0 {
		if err := s.fs.Remove(checkpointName(prev)); err != nil {
			return 0, err
		}
	}
	if err := s.log.TruncateThrough(lsn); err != nil {
		return 0, err
	}
	s.m.checkpointDone(time.Since(start))
	return lsn, nil
}

// CheckpointLSN returns the LSN covered by the newest installed checkpoint.
func (s *Store) CheckpointLSN() uint64 {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	return s.checkpointLSN
}

// Close shuts the log down. It does not checkpoint; callers wanting a fast
// next startup call Checkpoint first.
func (s *Store) Close() error {
	return s.log.Close()
}
