package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCaughtUp is returned by SegmentReader.Next when every durable record
// has been delivered. It is not an error condition: the caller either stops
// or parks on Log.WaitDurable and tries again.
var ErrCaughtUp = errors.New("wal: caught up to durable LSN")

// ErrTruncated reports that the requested LSN predates the oldest segment
// still on disk — a checkpoint covered and deleted it. A replication
// follower that sees it must re-bootstrap from a snapshot; tailing cannot
// resume.
var ErrTruncated = errors.New("wal: LSN truncated by checkpoint")

// SegmentInfo describes one on-disk WAL segment.
type SegmentInfo struct {
	// Name is the segment file name (wal-<firstLSN>.seg).
	Name string
	// First is the LSN of the segment's first record.
	First uint64
	// Last is the highest durable LSN the segment holds; First-1 when the
	// segment is empty (a freshly rotated active segment). For closed
	// segments this is exact; for the active one it is the durable
	// watermark at call time.
	Last uint64
	// Size is the segment's current byte size on disk. On the active
	// segment it may run ahead of Last by written-but-not-yet-fsynced
	// frames.
	Size int64
}

// SegmentInfos returns a snapshot of the on-disk segments in LSN order:
// first/last LSN and byte size per segment, the metadata a replication
// leader advertises. Segments deleted concurrently (checkpoint truncation)
// are omitted.
func (l *Log) SegmentInfos() ([]SegmentInfo, error) {
	durable := l.durable.Load()
	l.mu.Lock()
	segs := append([]segmentInfo(nil), l.segments...)
	l.mu.Unlock()

	infos := make([]SegmentInfo, 0, len(segs))
	for i, s := range segs {
		info := SegmentInfo{Name: s.name, First: s.first}
		if i+1 < len(segs) {
			info.Last = segs[i+1].first - 1
		} else {
			info.Last = durable
			if info.Last < s.first {
				info.Last = s.first - 1 // active segment, nothing durable yet
			}
		}
		size, err := l.fs.Size(s.name)
		if err != nil {
			continue // deleted between snapshot and stat
		}
		info.Size = size
		infos = append(infos, info)
	}
	return infos, nil
}

// OldestLSN returns the first LSN still readable from the log's segments.
// Records below it were covered by a checkpoint and their segments deleted.
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return l.nextLSN
	}
	return l.segments[0].first
}

// EncodeFrames encodes the check-ins as consecutive CRC32C frames starting
// at LSN first — the exact on-disk segment codec, reused as the replication
// wire format (frames travel segment-less over HTTP and are decoded by a
// FrameScanner).
func EncodeFrames(first uint64, cs []CheckIn) []byte {
	return encodeFrames(first, cs)
}

// FrameScanner decodes a stream of CRC32C frames (the segment record codec
// without segment headers). A scanner created with first > 0 additionally
// enforces that LSNs are contiguous from first.
//
// Next returns io.EOF at a clean frame boundary and io.ErrUnexpectedEOF
// when the stream ends mid-frame — on a replication stream both just mean
// the connection ended and the follower should reconnect from its own
// durable position. ErrCorrupt reports a CRC, length or LSN-sequence
// violation, which on a verified-durable stream is real damage. After an
// error every later call returns the same error and no record.
type FrameScanner struct {
	r      *bufio.Reader
	expect uint64 // next LSN required; 0 accepts any starting LSN
	err    error  // the first error Next returned
}

// NewFrameScanner reads frames from rd, requiring LSNs contiguous from
// first (0 accepts any start).
func NewFrameScanner(rd io.Reader, first uint64) *FrameScanner {
	br, ok := rd.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(rd, 1<<16)
	}
	return &FrameScanner{r: br, expect: first}
}

// Buffered reports how many complete frames are already buffered — a
// follower uses it to batch applies without blocking on the network.
func (s *FrameScanner) Buffered() int {
	return s.r.Buffered() / frameSize
}

// Next decodes one frame.
func (s *FrameScanner) Next() (uint64, CheckIn, error) {
	if s.err != nil {
		return 0, CheckIn{}, s.err
	}
	lsn, c, err := s.next()
	s.err = err
	return lsn, c, err
}

func (s *FrameScanner) next() (uint64, CheckIn, error) {
	var frame [frameSize]byte
	if _, err := io.ReadFull(s.r, frame[:frameHeaderSize]); err != nil {
		return 0, CheckIn{}, err
	}
	length := binary.LittleEndian.Uint32(frame[0:])
	crc := binary.LittleEndian.Uint32(frame[4:])
	if length != recordPayload {
		return 0, CheckIn{}, fmt.Errorf("%w: frame length %d", ErrCorrupt, length)
	}
	if _, err := io.ReadFull(s.r, frame[frameHeaderSize:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, CheckIn{}, err
	}
	if crc32.Checksum(frame[frameHeaderSize:], castagnoli) != crc {
		return 0, CheckIn{}, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	lsn := binary.LittleEndian.Uint64(frame[frameHeaderSize:])
	if s.expect != 0 && lsn != s.expect {
		return 0, CheckIn{}, fmt.Errorf("%w: frame LSN %d, expected %d", ErrCorrupt, lsn, s.expect)
	}
	s.expect = lsn + 1
	return lsn, CheckIn{
		POI: int64(binary.LittleEndian.Uint64(frame[frameHeaderSize+8:])),
		At:  int64(binary.LittleEndian.Uint64(frame[frameHeaderSize+16:])),
	}, nil
}

// errBadMagic reports a segment header that does not start with segMagic.
// On the final segment at recovery it is the torn creation of a header that
// never became whole; anywhere else it is corruption.
var errBadMagic = fmt.Errorf("%w: bad segment magic", ErrCorrupt)

// readSegmentHeader reads seg's header from r and checks it against the
// segment's name. A header cut short wraps io.EOF or io.ErrUnexpectedEOF.
func readSegmentHeader(r io.Reader, seg segmentInfo) error {
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("wal: segment %s: reading header: %w", seg.name, err)
	}
	if string(hdr[:8]) != segMagic {
		return fmt.Errorf("segment %s: %w", seg.name, errBadMagic)
	}
	if first := binary.LittleEndian.Uint64(hdr[8:]); first != seg.first {
		return fmt.Errorf("%w: segment %s: header LSN %d != name", ErrCorrupt, seg.name, first)
	}
	return nil
}

// SegmentReader reads committed records from the log in LSN order, starting
// at an arbitrary LSN, safely against concurrent appends, rotation and
// checkpoint truncation. It never delivers a record past the durable
// watermark, so it cannot observe a torn or unfsynced frame: the committer
// finishes the batch's writes before it advances DurableLSN, and the reader
// checks the watermark before every frame.
//
// Next returns ErrCaughtUp once every durable record has been delivered;
// the caller parks on Log.WaitDurable and calls Next again. ErrTruncated
// means the position was deleted by a checkpoint and the reader is useless —
// a replication follower then re-bootstraps from a snapshot.
//
// A SegmentReader is not safe for concurrent use; open one per consumer.
type SegmentReader struct {
	l    *Log
	next uint64 // next LSN to deliver

	f  io.ReadCloser // current segment, nil between segments
	sc *FrameScanner
}

// OpenSegmentReader positions a reader at fromLSN. The position is validated
// lazily: a fromLSN already truncated surfaces as ErrTruncated from the
// first Next.
func (l *Log) OpenSegmentReader(fromLSN uint64) *SegmentReader {
	return &SegmentReader{l: l, next: fromLSN}
}

// NextLSN returns the LSN the next successful Next call will deliver.
func (r *SegmentReader) NextLSN() uint64 { return r.next }

// Close releases the underlying segment file. The reader may be used again
// afterwards; the next call reopens.
func (r *SegmentReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f, r.sc = nil, nil
	return err
}

// Next delivers the next durable record.
func (r *SegmentReader) Next() (uint64, CheckIn, error) {
	if r.l.DurableLSN() < r.next {
		return 0, CheckIn{}, ErrCaughtUp
	}
	// The frame for r.next is fully on disk: the committer wrote it before
	// advancing the durable watermark we just read. An EOF therefore means
	// the current segment ended cleanly and the frame lives in a later one
	// (rotation handoff) — reopen at the segment that owns r.next. The
	// attempt bound turns a logic error into a loud failure instead of a
	// spin.
	for attempt := 0; attempt < 8; attempt++ {
		if r.f == nil {
			if err := r.open(); err != nil {
				return 0, CheckIn{}, err
			}
		}
		lsn, c, err := r.sc.Next()
		switch {
		case err == nil:
			r.next = lsn + 1
			return lsn, c, nil
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			if cerr := r.Close(); cerr != nil {
				return 0, CheckIn{}, cerr
			}
		default:
			r.Close()
			return 0, CheckIn{}, err
		}
	}
	return 0, CheckIn{}, fmt.Errorf("wal: segment reader stuck at LSN %d", r.next)
}

// WaitNext is Next that parks on the durable watermark instead of returning
// ErrCaughtUp, until ctx ends (ctx.Err()) or the log closes (ErrClosed).
func (r *SegmentReader) WaitNext(ctx context.Context) (uint64, CheckIn, error) {
	for {
		lsn, c, err := r.Next()
		if !errors.Is(err, ErrCaughtUp) {
			return lsn, c, err
		}
		if err := r.l.WaitDurable(ctx, r.next); err != nil {
			return 0, CheckIn{}, err
		}
	}
}

// open opens the segment owning r.next and skips to its frame. Frames are
// fixed-width, so the offset is arithmetic.
func (r *SegmentReader) open() error {
	seg, ok := r.segmentFor(r.next)
	if !ok {
		return fmt.Errorf("%w: LSN %d predates the oldest segment", ErrTruncated, r.next)
	}
	f, err := r.l.fs.Open(seg.name)
	if err != nil {
		// The segment can vanish between lookup and open when a checkpoint
		// truncates it; re-check so the caller gets the sentinel, not a
		// raw file error.
		if _, again := r.segmentFor(r.next); !again {
			return fmt.Errorf("%w: LSN %d predates the oldest segment", ErrTruncated, r.next)
		}
		return err
	}
	sc := NewFrameScanner(f, r.next)
	if err := readSegmentHeader(sc.r, seg); err != nil {
		f.Close()
		return err
	}
	if skip := int64(r.next-seg.first) * frameSize; skip > 0 {
		if _, err := io.CopyN(io.Discard, sc.r, skip); err != nil {
			f.Close()
			return fmt.Errorf("wal: segment %s: seeking to LSN %d: %w", seg.name, r.next, err)
		}
	}
	r.f, r.sc = f, sc
	return nil
}

// segmentFor finds the segment whose LSN range contains lsn.
func (r *SegmentReader) segmentFor(lsn uint64) (segmentInfo, bool) {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	for i := len(r.l.segments) - 1; i >= 0; i-- {
		if r.l.segments[i].first <= lsn {
			return r.l.segments[i], true
		}
	}
	return segmentInfo{}, false
}
