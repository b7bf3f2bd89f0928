// Package wal implements the durable write path of the TAR-tree server: a
// segmented append-only check-in log with group-commit fsync batching,
// crash recovery that tolerates a torn tail, and checkpointing that bounds
// replay work (store.go).
//
// The paper's TAR-tree serves a live LBSN workload — check-ins arrive
// continuously and fold into the tree when their epoch closes (Section 4.2)
// — but the aggregates a crash would lose are exactly the buffered,
// not-yet-flushed check-ins. The WAL makes every acknowledged check-in
// durable before the caller proceeds: Append returns only after the record
// (and, thanks to group commit, everything batched with it) has been
// fsynced.
//
// On disk a WAL is a directory of segment files wal-<firstLSN>.seg, each a
// 16-byte header followed by CRC32C-framed records with contiguous,
// monotonically increasing log sequence numbers. Replay scans the segments
// in order, verifies every frame, and — on the final segment only — treats
// the first bad frame as a torn tail from an interrupted write: the file is
// truncated at the last good frame and the log continues from there. A bad
// frame anywhere else is real corruption and fails recovery.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"tartree/internal/obs"
)

// CheckIn is one logged event: a check-in at POI at time At.
type CheckIn struct {
	POI int64
	At  int64
}

// Frame layout: u32 payload length, u32 CRC32C of the payload, payload.
// The payload of a check-in record is u64 LSN + i64 POI + i64 At.
const (
	frameHeaderSize = 8
	recordPayload   = 24
	frameSize       = frameHeaderSize + recordPayload

	segMagic      = "TARWAL1\n"
	segHeaderSize = 16 // magic + u64 first LSN
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// LogOptions configures a Log.
type LogOptions struct {
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default 4 MiB). Rotation happens on record boundaries, so
	// segments may overshoot by up to one batch.
	SegmentBytes int64
	// NoSync skips the fsync after each commit batch. Throughput
	// experiments use it to isolate the cost of durability; a crash can
	// then lose acknowledged records, exactly like a database running with
	// synchronous_commit=off.
	NoSync bool
	// Metrics, when set, publishes WAL counters and latency histograms
	// (appends, fsyncs, batch sizes, replay work) into the registry.
	Metrics *Metrics
	// TraceSink, when set, receives one trace per group-commit batch. The
	// batch trace links the span contexts of the member AppendCtx calls it
	// made durable — the cross-request edge a flamegraph needs to explain
	// why a 1-record append waited out a 500-record fsync.
	TraceSink obs.TraceSink
}

func (o *LogOptions) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// appendReq is one Append call waiting for its batch to become durable.
type appendReq struct {
	data []byte
	last uint64
	done chan error

	// enqueued is when the request entered the commit queue; the committer
	// reports the gap until its batch starts as fsync stall.
	enqueued time.Time
	// link is the caller's fsync_batch span context (zero when the caller
	// is untraced); the batch trace links it.
	link obs.SpanContext
}

// Log is the write-ahead check-in log. All methods are safe for concurrent
// use; Append blocks until the record batch is durable.
type Log struct {
	fs   FS
	opts LogOptions

	mu      sync.Mutex
	nextLSN uint64 // next LSN to assign
	queue   []*appendReq
	closed  bool
	failed  error // sticky commit failure; append-after-failure returns it

	// Committer-owned state (no lock needed once the goroutine runs).
	seg      File
	segStart uint64
	segSize  int64
	segments []segmentInfo // closed + active segments, ascending

	durable atomic.Uint64
	// durableCh is closed and replaced under mu every time durable advances
	// (and once more on Close) — the broadcast WaitDurable and the
	// replication long-poll block on.
	durableCh chan struct{}
	wake      chan struct{}
	quit      chan struct{}
	done      chan struct{}

	replay ReplayStats
	m      *Metrics
}

// segmentInfo tracks one on-disk segment.
type segmentInfo struct {
	name  string
	first uint64
}

// ReplayStats reports what recovery did.
type ReplayStats struct {
	// Segments scanned during replay.
	Segments int
	// Records replayed (LSN greater than the caller's floor).
	Records int64
	// Skipped counts records at or below the floor (already covered by a
	// checkpoint) plus records the apply callback declined.
	Skipped int64
	// TruncatedBytes is the torn tail removed from the final segment.
	TruncatedBytes int64
}

// OpenLog opens (creating if necessary) the WAL stored in fs. Existing
// records with LSN > after are replayed in order through apply before the
// log accepts new appends; apply returning an error aborts recovery (nil
// scans without delivering). The log then appends to a fresh segment
// starting at the next LSN.
func OpenLog(fs FS, opts LogOptions, after uint64, apply func(lsn uint64, c CheckIn) error) (*Log, error) {
	opts.fill()
	if apply == nil {
		apply = func(uint64, CheckIn) error { return nil }
	}
	l := &Log{
		fs:        fs,
		opts:      opts,
		durableCh: make(chan struct{}),
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		m:         opts.Metrics,
	}
	if err := l.recover(after, apply); err != nil {
		return nil, err
	}
	if err := l.openSegment(l.nextLSN); err != nil {
		return nil, err
	}
	l.durable.Store(l.nextLSN - 1)
	l.m.setSegments(len(l.segments))
	go l.committer()
	return l, nil
}

// DurableLSN returns the highest LSN known durable.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// NextLSN returns the next LSN the log will assign.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// ReplayStats returns what recovery replayed when the log was opened.
func (l *Log) ReplayStats() ReplayStats { return l.replay }

// Segments returns the number of on-disk segments (including the active
// one).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Append makes the check-ins durable and returns the LSN of the last one.
// Concurrent Appends are coalesced by the committer goroutine into one
// write+fsync (group commit); each caller returns once its own batch is on
// disk.
func (l *Log) Append(cs []CheckIn) (uint64, error) {
	return l.AppendCtx(context.Background(), cs)
}

// AppendCtx is Append with trace context: when ctx carries a span (see
// obs.ContextWithSpan), the durable wait is recorded as a child span
// "fsync_batch" whose context the group-commit batch trace links back to.
// The context does not cancel the append — once queued, a record becomes
// durable regardless.
func (l *Log) AppendCtx(ctx context.Context, cs []CheckIn) (uint64, error) {
	if len(cs) == 0 {
		return l.durable.Load(), nil
	}
	req := &appendReq{done: make(chan error, 1)}
	start := time.Now()
	var fsSpan *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		fsSpan = parent.StartChild("fsync_batch")
		fsSpan.SetAttr("records", len(cs))
		req.link = fsSpan.Context()
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		fsSpan.End()
		return 0, ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		fsSpan.End()
		return 0, err
	}
	first := l.nextLSN
	l.nextLSN += uint64(len(cs))
	req.last = l.nextLSN - 1
	req.data = encodeFrames(first, cs)
	req.enqueued = start
	l.queue = append(l.queue, req)
	l.mu.Unlock()

	select {
	case l.wake <- struct{}{}:
	default:
	}
	err := <-req.done
	fsSpan.SetAttr("last_lsn", req.last)
	fsSpan.End()
	if err != nil {
		return 0, err
	}
	l.m.appendDone(len(cs))
	return req.last, nil
}

// committer drains the append queue: it writes every queued request,
// rotates segments as needed, issues one fsync for the whole batch, and
// only then releases the callers. While an fsync is in flight new appends
// pile up in the queue, so a slow disk automatically yields large batches —
// the classic group-commit dynamic.
func (l *Log) committer() {
	defer close(l.done)
	for {
		select {
		case <-l.wake:
		case <-l.quit:
			// Drain whatever queued before Close.
			l.commitPending()
			return
		}
		l.commitPending()
	}
}

// commitPending commits every currently queued request as one batch.
func (l *Log) commitPending() {
	l.mu.Lock()
	batch := l.queue
	l.queue = nil
	l.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	err := l.commit(batch)
	if err != nil {
		l.mu.Lock()
		if l.failed == nil {
			l.failed = fmt.Errorf("wal: commit failed: %w", err)
		}
		l.mu.Unlock()
	}
	for _, req := range batch {
		req.done <- err
	}
}

// commit writes and fsyncs one batch. When a trace sink is configured the
// batch gets its own trace, rooted at "wal_commit_batch", linking every
// traced member append — the batch is shared work with no single parent
// request, exactly the shape a scatter-gather fan-in has.
func (l *Log) commit(batch []*appendReq) error {
	start := time.Now()
	bt := obs.StartTrace("wal_commit_batch", obs.SpanContext{}, l.opts.TraceSink)
	for _, req := range batch {
		l.m.fsyncStall(start.Sub(req.enqueued))
		if req.link.Valid() {
			bt.AddLink(req.link)
		}
	}
	var records int64
	defer func() {
		bt.SetAttr("appends", len(batch))
		bt.SetAttr("records", records)
		bt.Finish()
	}()
	for _, req := range batch {
		if l.segSize >= l.opts.SegmentBytes {
			first := frameLSN(req.data)
			if err := l.rotate(first); err != nil {
				return err
			}
		}
		n, err := l.seg.Write(req.data)
		if err != nil {
			return err
		}
		l.segSize += int64(n)
		records += int64(len(req.data) / frameSize)
	}
	if !l.opts.NoSync {
		sp := bt.StartChild("fsync")
		fsyncStart := time.Now()
		err := l.seg.Sync()
		sp.End()
		if err != nil {
			return err
		}
		l.m.fsyncDone(time.Since(fsyncStart))
	}
	last := batch[len(batch)-1].last
	l.durable.Store(last)
	l.broadcastDurable()
	l.m.batchDone(len(batch), records)
	return nil
}

// broadcastDurable wakes every WaitDurable blocked on an older watermark.
func (l *Log) broadcastDurable() {
	l.mu.Lock()
	close(l.durableCh)
	l.durableCh = make(chan struct{})
	l.mu.Unlock()
}

// WaitDurable blocks until DurableLSN() >= lsn, ctx ends, or the log is
// closed. The replication stream uses it to long-poll the live segment:
// a caught-up reader parks here instead of spinning on DurableLSN.
func (l *Log) WaitDurable(ctx context.Context, lsn uint64) error {
	for {
		l.mu.Lock()
		if l.durable.Load() >= lsn {
			l.mu.Unlock()
			return nil
		}
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		ch := l.durableCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// rotate closes the active segment and starts a new one whose first record
// will carry LSN first. The old segment is fsynced before the new one is
// created, so every non-final segment on disk is complete: replay treats a
// bad frame there as corruption, not a torn tail.
func (l *Log) rotate(first uint64) error {
	if !l.opts.NoSync {
		if err := l.seg.Sync(); err != nil {
			return err
		}
	}
	if err := l.seg.Close(); err != nil {
		return err
	}
	if err := l.openSegment(first); err != nil {
		return err
	}
	return nil
}

// openSegment creates the segment file whose first record carries LSN
// first, writes its header, and makes the creation durable.
func (l *Log) openSegment(first uint64) error {
	name := segmentName(first)
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := l.fs.SyncDir(); err != nil {
			f.Close()
			return err
		}
	}
	l.seg = f
	l.segStart = first
	l.segSize = segHeaderSize

	l.mu.Lock()
	l.segments = append(l.segments, segmentInfo{name: name, first: first})
	segs := len(l.segments)
	l.mu.Unlock()
	l.m.setSegments(segs)
	return nil
}

// TruncateThrough deletes every closed segment whose records all have LSN
// <= lsn — they are covered by a checkpoint and no longer needed for
// recovery. The active segment is never deleted.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	var victims []segmentInfo
	keep := make([]segmentInfo, 0, len(l.segments))
	for i, s := range l.segments {
		// The active segment is the final entry; a closed segment's LSN
		// range ends where the next one begins.
		closed := i+1 < len(l.segments)
		if closed && l.segments[i+1].first-1 <= lsn {
			victims = append(victims, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.segments = keep
	segs := len(l.segments)
	l.mu.Unlock()

	for _, s := range victims {
		if err := l.fs.Remove(s.name); err != nil {
			return err
		}
	}
	if len(victims) > 0 {
		if err := l.fs.SyncDir(); err != nil {
			return err
		}
	}
	l.m.setSegments(segs)
	return nil
}

// Close flushes pending appends and shuts the committer down.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.broadcastDurable() // wake WaitDurable parkers so they observe closed
	if l.seg != nil {
		if !l.opts.NoSync {
			if err := l.seg.Sync(); err != nil {
				l.seg.Close()
				return err
			}
		}
		return l.seg.Close()
	}
	return nil
}

// encodeFrames encodes the check-ins as consecutive frames starting at LSN
// first.
func encodeFrames(first uint64, cs []CheckIn) []byte {
	buf := make([]byte, 0, len(cs)*frameSize)
	var payload [recordPayload]byte
	for i, c := range cs {
		binary.LittleEndian.PutUint64(payload[0:], first+uint64(i))
		binary.LittleEndian.PutUint64(payload[8:], uint64(c.POI))
		binary.LittleEndian.PutUint64(payload[16:], uint64(c.At))
		var hdr [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], recordPayload)
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload[:], castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload[:]...)
	}
	return buf
}

// frameLSN reads the LSN of the first frame in an encoded batch.
func frameLSN(data []byte) uint64 {
	return binary.LittleEndian.Uint64(data[frameHeaderSize:])
}
