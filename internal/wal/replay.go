package wal

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrCorrupt reports unrecoverable log damage: a bad frame in a segment
// that is not the final one, a segment header that doesn't match its file
// name, or a gap in the LSN sequence. A torn tail on the final segment is
// NOT corruption — recovery repairs it by truncating.
var ErrCorrupt = errors.New("wal: corrupt log")

// recover scans the on-disk segments, replays records with LSN > after
// through apply, repairs a torn tail, and positions nextLSN. Called once
// from OpenLog before the committer starts.
func (l *Log) recover(after uint64, apply func(lsn uint64, c CheckIn) error) error {
	names, err := l.fs.List()
	if err != nil {
		return err
	}
	var segs []segmentInfo
	for _, name := range names {
		if first, ok := parseSegmentName(name); ok {
			segs = append(segs, segmentInfo{name: name, first: first})
		}
	}
	// List is sorted and the fixed-width decimal names sort by LSN.
	l.nextLSN = after + 1
	if len(segs) == 0 {
		if l.nextLSN == 0 {
			l.nextLSN = 1
		}
		return nil
	}

	expect := segs[0].first
	if expect > after+1 {
		return fmt.Errorf("%w: first segment %s starts at LSN %d, need %d (checkpoint gap)",
			ErrCorrupt, segs[0].name, expect, after+1)
	}
	var survive []segmentInfo
	for i, seg := range segs {
		final := i == len(segs)-1
		if seg.first != expect {
			return fmt.Errorf("%w: segment %s starts at LSN %d, expected %d",
				ErrCorrupt, seg.name, seg.first, expect)
		}
		next, removed, err := l.replaySegment(seg, expect, after, final, apply)
		if err != nil {
			return err
		}
		if !removed {
			survive = append(survive, seg)
		}
		expect = next
	}
	if expect < after+1 {
		// Defensive: the checkpoint claims LSNs the log no longer holds.
		// Never reissue them.
		expect = after + 1
	}
	l.nextLSN = expect
	// OpenLog opens a fresh segment at nextLSN next; if the last survivor is
	// an empty segment with that very first LSN (a restart that crashed
	// before any append), the fresh segment recreates the same file — drop
	// the stale entry so it isn't tracked twice.
	if n := len(survive); n > 0 && survive[n-1].first == l.nextLSN {
		survive = survive[:n-1]
	}
	l.segments = survive
	return nil
}

// replaySegment replays one segment starting at LSN expect and returns the
// LSN expected next, plus whether the segment file was removed outright. On
// the final segment a malformed frame is treated as a torn tail: the file is
// truncated at the end of the last good frame and the scan stops.
func (l *Log) replaySegment(seg segmentInfo, expect, after uint64, final bool, apply func(lsn uint64, c CheckIn) error) (uint64, bool, error) {
	l.replay.Segments++
	f, err := l.fs.Open(seg.name)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	sc := NewFrameScanner(f, seg.first)
	if err := readSegmentHeader(sc.r, seg); err != nil {
		short := errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
		if final && (short || errors.Is(err, errBadMagic)) {
			// The torn creation of the final segment: its header never
			// became whole.
			return expect, true, l.dropTail(seg.name, 0)
		}
		if short {
			err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return 0, false, err
	}

	offset := int64(segHeaderSize)
	for {
		lsn, c, err := sc.Next()
		switch {
		case err == io.EOF:
			return expect, false, nil // clean end of segment
		case err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorrupt):
			if final {
				return expect, false, l.dropTail(seg.name, offset)
			}
			return 0, false, fmt.Errorf("%w: segment %s at offset %d: %v", ErrCorrupt, seg.name, offset, err)
		case err != nil:
			return 0, false, err
		}
		if lsn > after {
			if err := apply(lsn, c); err != nil {
				return 0, false, fmt.Errorf("wal: replaying LSN %d: %w", lsn, err)
			}
			l.replay.Records++
		} else {
			l.replay.Skipped++
		}
		expect++
		offset += frameSize
	}
}

// dropTail truncates the final segment at offset, discarding a torn tail
// (offset 0 removes the file entirely — its header never became whole).
func (l *Log) dropTail(name string, offset int64) error {
	size, err := l.fs.Size(name)
	if err != nil {
		return err
	}
	if size > offset {
		l.replay.TruncatedBytes += size - offset
	}
	if offset == 0 {
		if err := l.fs.Remove(name); err != nil {
			return err
		}
		return l.fs.SyncDir()
	}
	return l.fs.Truncate(name, offset)
}

// DescribeReplay renders the stats as one human-readable line.
func (s ReplayStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d segment(s), %d record(s) replayed", s.Segments, s.Records)
	if s.Skipped > 0 {
		fmt.Fprintf(&b, ", %d skipped", s.Skipped)
	}
	if s.TruncatedBytes > 0 {
		fmt.Fprintf(&b, ", %d torn byte(s) truncated", s.TruncatedBytes)
	}
	return b.String()
}
