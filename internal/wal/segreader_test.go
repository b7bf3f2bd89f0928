package wal

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// smallSegments forces a rotation every few records so the reader tests
// cross segment boundaries constantly.
const smallSegments = segHeaderSize + 5*frameSize

// appendSerial appends n records one at a time and returns them.
func appendSerial(t *testing.T, l *Log, n int) []CheckIn {
	t.Helper()
	cs := make([]CheckIn, 0, n)
	for i := 0; i < n; i++ {
		c := CheckIn{POI: int64(i * 7), At: int64(i)}
		if _, err := l.Append([]CheckIn{c}); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

func TestSegmentInfos(t *testing.T) {
	l, err := OpenLog(testFS(t), LogOptions{SegmentBytes: smallSegments, NoSync: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 23
	appendSerial(t, l, n)

	infos, err := l.SegmentInfos()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 3 {
		t.Fatalf("expected several segments, got %d", len(infos))
	}
	if infos[0].First != 1 {
		t.Fatalf("first segment starts at %d, want 1", infos[0].First)
	}
	for i, info := range infos {
		if i > 0 {
			if info.First != infos[i-1].Last+1 {
				t.Fatalf("segment %d starts at %d, previous ended at %d", i, info.First, infos[i-1].Last)
			}
		}
		if info.Last < info.First-1 {
			t.Fatalf("segment %d: last %d < first-1 %d", i, info.Last, info.First-1)
		}
		// Every segment holds exactly header + one frame per record; the
		// serial workload leaves no unfsynced tail.
		want := int64(segHeaderSize) + int64(info.Last-info.First+1)*frameSize
		if info.Size != want {
			t.Fatalf("segment %d (%s): size %d, want %d", i, info.Name, info.Size, want)
		}
	}
	if last := infos[len(infos)-1].Last; last != n {
		t.Fatalf("final segment ends at %d, want %d", last, n)
	}
}

func TestSegmentReaderFromEveryLSN(t *testing.T) {
	l, err := OpenLog(testFS(t), LogOptions{SegmentBytes: smallSegments, NoSync: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 17
	cs := appendSerial(t, l, n)

	// Every starting position — segment-initial, segment-final and interior
	// LSNs alike — must replay the exact suffix and then report caught-up.
	for from := uint64(1); from <= n+1; from++ {
		r := l.OpenSegmentReader(from)
		for want := from; want <= n; want++ {
			lsn, c, err := r.Next()
			if err != nil {
				t.Fatalf("from=%d: Next at %d: %v", from, want, err)
			}
			if lsn != want {
				t.Fatalf("from=%d: got LSN %d, want %d", from, lsn, want)
			}
			if c != cs[want-1] {
				t.Fatalf("from=%d: LSN %d: record %+v, want %+v", from, lsn, c, cs[want-1])
			}
		}
		if _, _, err := r.Next(); !errors.Is(err, ErrCaughtUp) {
			t.Fatalf("from=%d: expected ErrCaughtUp past the end, got %v", from, err)
		}
		r.Close()
	}
}

func TestSegmentReaderResumesAcrossRotation(t *testing.T) {
	l, err := OpenLog(testFS(t), LogOptions{SegmentBytes: smallSegments, NoSync: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	appendSerial(t, l, 5) // exactly fills the first segment
	r := l.OpenSegmentReader(1)
	for want := uint64(1); want <= 5; want++ {
		if lsn, _, err := r.Next(); err != nil || lsn != want {
			t.Fatalf("lsn %d err %v, want %d", lsn, err, want)
		}
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrCaughtUp) {
		t.Fatalf("expected caught-up at the live edge, got %v", err)
	}

	// Appends continue into a rotated segment; the same reader must hand
	// off to the new file without re-reading or skipping anything.
	appendSerial(t, l, 7)
	for want := uint64(6); want <= 12; want++ {
		lsn, _, err := r.Next()
		if err != nil {
			t.Fatalf("after rotation, Next at %d: %v", want, err)
		}
		if lsn != want {
			t.Fatalf("after rotation got LSN %d, want %d", lsn, want)
		}
	}
}

func TestSegmentReaderTruncated(t *testing.T) {
	l, err := OpenLog(testFS(t), LogOptions{SegmentBytes: smallSegments, NoSync: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendSerial(t, l, 20)
	if err := l.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestLSN()
	if oldest <= 1 {
		t.Fatalf("truncation kept the first segment (oldest %d)", oldest)
	}

	r := l.OpenSegmentReader(1)
	if _, _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("reading truncated LSN 1: got %v, want ErrTruncated", err)
	}
	// From the oldest surviving LSN the suffix is intact.
	r = l.OpenSegmentReader(oldest)
	for want := oldest; want <= 20; want++ {
		lsn, _, err := r.Next()
		if err != nil {
			t.Fatalf("Next at %d: %v", want, err)
		}
		if lsn != want {
			t.Fatalf("got LSN %d, want %d", lsn, want)
		}
	}
}

func TestFrameScannerRoundTrip(t *testing.T) {
	cs := corpus(40, 3)
	raw := EncodeFrames(100, cs)
	sc := NewFrameScanner(bytes.NewReader(raw), 100)
	for i, want := range cs {
		lsn, c, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if lsn != 100+uint64(i) || c != want {
			t.Fatalf("frame %d: lsn %d record %+v", i, lsn, c)
		}
	}
	if _, _, err := sc.Next(); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}

	// A stream cut mid-frame ends with ErrUnexpectedEOF — a reconnect
	// signal, not corruption.
	sc = NewFrameScanner(bytes.NewReader(raw[:len(raw)-frameSize-5]), 100)
	var err error
	for err == nil {
		_, _, err = sc.Next()
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn stream: got %v, want ErrUnexpectedEOF", err)
	}

	// A flipped payload byte must fail the CRC.
	bad := append([]byte(nil), raw...)
	bad[frameSize+frameHeaderSize+3] ^= 0xff
	sc = NewFrameScanner(bytes.NewReader(bad), 100)
	if _, _, err := sc.Next(); err != nil {
		t.Fatalf("frame before the damage: %v", err)
	}
	if _, _, err := sc.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: got %v, want ErrCorrupt", err)
	}

	// An LSN gap is corruption when sequencing is on, accepted when off.
	sc = NewFrameScanner(bytes.NewReader(raw), 99)
	if _, _, err := sc.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LSN gap: got %v, want ErrCorrupt", err)
	}
	sc = NewFrameScanner(bytes.NewReader(raw), 0)
	if lsn, _, err := sc.Next(); err != nil || lsn != 100 {
		t.Fatalf("unsequenced scan: lsn %d err %v", lsn, err)
	}
}

func TestWaitDurable(t *testing.T) {
	l, err := OpenLog(testFS(t), LogOptions{NoSync: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Already durable: returns immediately.
	if _, err := l.Append([]CheckIn{{POI: 1, At: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	// Future LSN: parks until an append advances the watermark.
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(context.Background(), 2) }()
	if _, err := l.Append([]CheckIn{{POI: 2, At: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitDurable after append: %v", err)
	}

	// Context cancellation unblocks with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- l.WaitDurable(ctx, 99) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait: %v", err)
	}

	// Close unblocks parked waiters with ErrClosed.
	go func() { done <- l.WaitDurable(context.Background(), 99) }()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("wait across close: %v", err)
	}
}

// TestConcurrentAppendWhileTail is the torn-frame proof for the live tail:
// while several writers append through group commit (with real fsyncs and
// rotations), a reader tails the log via WaitNext. The reader must observe
// every record exactly once, in contiguous LSN order, and never a frame the
// committer has not fsynced — the durable-watermark fence makes a torn read
// impossible, and the CRC check inside the scanner would catch one anyway.
func TestConcurrentAppendWhileTail(t *testing.T) {
	l, err := OpenLog(testFS(t), LogOptions{SegmentBytes: smallSegments * 4}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const (
		writers   = 4
		perWriter = 125
		total     = writers * perWriter
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Varying batch sizes exercise multi-frame writes and the
			// rotation boundary at different offsets.
			batch := make([]CheckIn, 0, 8)
			for i := 0; i < perWriter; i++ {
				batch = append(batch, CheckIn{POI: int64(w*perWriter + i), At: int64(i)})
				if len(batch) == 1+(i%3) || i == perWriter-1 {
					if _, err := l.Append(batch); err != nil {
						errs <- err
						return
					}
					batch = batch[:0]
				}
			}
		}(w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r := l.OpenSegmentReader(1)
	defer r.Close()
	seen := make(map[int64]bool, total)
	for next := uint64(1); next <= total; next++ {
		lsn, c, err := r.WaitNext(ctx)
		if err != nil {
			t.Fatalf("tail at LSN %d: %v", next, err)
		}
		if lsn != next {
			t.Fatalf("tail got LSN %d, want %d", lsn, next)
		}
		if seen[c.POI] {
			t.Fatalf("POI %d delivered twice", c.POI)
		}
		seen[c.POI] = true
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) != total {
		t.Fatalf("tailed %d distinct records, want %d", len(seen), total)
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrCaughtUp) {
		t.Fatalf("expected caught-up after the corpus, got %v", err)
	}
}

// FuzzFrameScanner feeds arbitrary bytes to the decoder a follower runs on
// its leader's WAL stream. It must never panic; every frame it returns must
// re-encode to exactly the bytes it consumed, with LSNs contiguous from first
// when first is set; and once it has returned an error it returns no record.
func FuzzFrameScanner(f *testing.F) {
	cs := []CheckIn{{POI: 3, At: 100}, {POI: -1, At: 1 << 40}, {POI: 17, At: -5}}
	valid := EncodeFrames(7, cs)
	flipped := bytes.Clone(valid)
	flipped[frameSize+4] ^= 1 // the second frame's CRC
	f.Add(valid, uint64(7))
	f.Add(valid, uint64(0))
	f.Add(valid, uint64(8)) // a stream that starts at the wrong LSN
	f.Add(valid[:frameSize], uint64(7))
	f.Add(valid[:frameSize+frameHeaderSize], uint64(7))
	f.Add(valid[:2*frameSize-1], uint64(7))
	f.Add(flipped, uint64(7))
	f.Add([]byte{}, uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		sc := NewFrameScanner(bytes.NewReader(data), first)
		var consumed int
		for {
			lsn, c, err := sc.Next()
			if err != nil {
				for i := 0; i < 2; i++ {
					if lsn, c, again := sc.Next(); again == nil || lsn != 0 || c != (CheckIn{}) {
						t.Fatalf("after %v: Next returned LSN %d %+v, %v", err, lsn, c, again)
					}
				}
				return
			}
			if first != 0 && lsn != first+uint64(consumed/frameSize) {
				t.Fatalf("frame %d has LSN %d, want %d", consumed/frameSize, lsn, first+uint64(consumed/frameSize))
			}
			end := consumed + frameSize
			if end > len(data) || !bytes.Equal(EncodeFrames(lsn, []CheckIn{c}), data[consumed:end]) {
				t.Fatalf("frame at %d (LSN %d, %+v) does not re-encode to the bytes it consumed", consumed, lsn, c)
			}
			consumed = end
		}
	})
}
