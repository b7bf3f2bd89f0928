package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tartree/internal/obs"
)

// memApply collects replayed records for assertions.
type memApply struct {
	lsns []uint64
	recs []CheckIn
}

func (a *memApply) fn(lsn uint64, c CheckIn) error {
	a.lsns = append(a.lsns, lsn)
	a.recs = append(a.recs, c)
	return nil
}

func testFS(t *testing.T) *DirFS {
	t.Helper()
	fs, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func corpus(n int, seed int64) []CheckIn {
	r := rand.New(rand.NewSource(seed))
	cs := make([]CheckIn, n)
	for i := range cs {
		cs[i] = CheckIn{POI: int64(r.Intn(16) + 1), At: int64(i * 3)}
	}
	return cs
}

func TestLogRoundTrip(t *testing.T) {
	fs := testFS(t)
	l, err := OpenLog(fs, LogOptions{}, 0, func(uint64, CheckIn) error {
		t.Fatal("fresh log replayed records")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := corpus(100, 1)
	for i := 0; i < len(cs); i += 7 {
		end := i + 7
		if end > len(cs) {
			end = len(cs)
		}
		lsn, err := l.Append(cs[i:end])
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(end); lsn != want {
			t.Fatalf("append returned LSN %d, want %d", lsn, want)
		}
		if l.DurableLSN() < lsn {
			t.Fatalf("durable %d < acked %d", l.DurableLSN(), lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got memApply
	l2, err := OpenLog(fs, LogOptions{}, 0, got.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got.recs) != len(cs) {
		t.Fatalf("replayed %d records, want %d", len(got.recs), len(cs))
	}
	for i, c := range got.recs {
		if c != cs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, c, cs[i])
		}
		if got.lsns[i] != uint64(i+1) {
			t.Fatalf("lsn[%d] = %d, want %d", i, got.lsns[i], i+1)
		}
	}
	if next := l2.NextLSN(); next != uint64(len(cs)+1) {
		t.Fatalf("NextLSN = %d, want %d", next, len(cs)+1)
	}
	st := l2.ReplayStats()
	if st.Records != int64(len(cs)) || st.Skipped != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("replay stats %+v", st)
	}
}

func TestLogRotationAndAfterFloor(t *testing.T) {
	fs := testFS(t)
	// Tiny segments force many rotations.
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 10 * frameSize}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := corpus(100, 2)
	for _, c := range cs {
		if _, err := l.Append([]CheckIn{c}); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 5 {
		t.Fatalf("only %d segments after 100 tiny-segment appends", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay with a floor skips everything at or below it.
	var got memApply
	l2, err := OpenLog(fs, LogOptions{SegmentBytes: 10 * frameSize}, 40, got.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got.recs) != 60 {
		t.Fatalf("replayed %d records past floor 40, want 60", len(got.recs))
	}
	if got.lsns[0] != 41 {
		t.Fatalf("first replayed LSN = %d, want 41", got.lsns[0])
	}
	st := l2.ReplayStats()
	if st.Skipped != 40 {
		t.Fatalf("skipped %d, want 40", st.Skipped)
	}
}

func TestLogConcurrentAppends(t *testing.T) {
	fs := testFS(t)
	reg := obs.NewRegistry()
	l, err := OpenLog(fs, LogOptions{Metrics: NewMetrics(reg)}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c := CheckIn{POI: int64(w + 1), At: int64(i)}
				lsn, err := l.Append([]CheckIn{c})
				if err != nil {
					errs <- err
					return
				}
				if l.DurableLSN() < lsn {
					errs <- fmt.Errorf("durable < acked LSN %d", lsn)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got memApply
	l2, err := OpenLog(fs, LogOptions{}, 0, got.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got.recs) != writers*perWriter {
		t.Fatalf("replayed %d, want %d", len(got.recs), writers*perWriter)
	}
	// LSNs contiguous from 1; per-writer record order preserved.
	perW := make(map[int64]int64)
	for i, lsn := range got.lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsn[%d] = %d", i, lsn)
		}
		c := got.recs[i]
		if c.At < perW[c.POI] {
			t.Fatalf("writer %d records reordered: %d after %d", c.POI, c.At, perW[c.POI])
		}
		perW[c.POI] = c.At
	}
}

// TestGroupCommitCoalesces pins the group-commit mechanism itself: while one
// fsync is in flight, every queued append must ride the next one, so with a
// slow disk the number of fsyncs stays far below the number of appends.
func TestGroupCommitCoalesces(t *testing.T) {
	fs := testFS(t)
	reg := obs.NewRegistry()
	slow := &SlowFS{FS: fs, SyncDelay: 2 * time.Millisecond}
	l, err := OpenLog(slow, LogOptions{Metrics: NewMetrics(reg)}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 16, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]CheckIn{{POI: int64(w + 1), At: int64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appends := reg.Counter("tartree_wal_appends_total").Value()
	fsyncs := reg.Counter("tartree_wal_fsyncs_total").Value()
	if appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", appends, writers*perWriter)
	}
	// 16 writers against a 2ms fsync: perfect coalescing would need ~20
	// fsyncs; even heavy scheduling noise keeps it far under one per append.
	if fsyncs*2 > appends {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d appends", fsyncs, appends)
	}
	t.Logf("%d appends in %d fsyncs (%.1fx coalescing)", appends, fsyncs, float64(appends)/float64(fsyncs))
}

// BenchmarkGroupCommit measures durable append throughput on a disk whose
// fsync takes 1 ms. One op is one Append of batch check-ins; the ops are
// shared out among writers concurrent clients. fsyncs/op falls below 1 once
// group commit has concurrent appends to coalesce, and records/s is what the
// log then sustains.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 16} {
		for _, batch := range []int{1, 8} {
			b.Run(fmt.Sprintf("writers=%d/batch=%d", writers, batch), func(b *testing.B) {
				fs, err := NewDirFS(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				reg := obs.NewRegistry()
				l, err := OpenLog(&SlowFS{FS: fs, SyncDelay: time.Millisecond}, LogOptions{Metrics: NewMetrics(reg)}, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				fsyncs := reg.Counter("tartree_wal_fsyncs_total")
				before := fsyncs.Value()
				recs := corpus(batch, 7)
				var ops atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for ops.Add(1) <= int64(b.N) {
							if _, err := l.Append(recs); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "records/s")
				b.ReportMetric(float64(fsyncs.Value()-before)/float64(b.N), "fsyncs/op")
			})
		}
	}
}

func TestTruncateThrough(t *testing.T) {
	fs := testFS(t)
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 10 * frameSize}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := corpus(95, 3)
	for _, c := range cs {
		if _, err := l.Append([]CheckIn{c}); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	if before < 5 {
		t.Fatalf("want several segments, got %d", before)
	}
	if err := l.TruncateThrough(50); err != nil {
		t.Fatal(err)
	}
	after := l.Segments()
	if after >= before {
		t.Fatalf("TruncateThrough removed nothing (%d -> %d)", before, after)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Only records past the checkpoint floor remain; replay with the same
	// floor recovers exactly the uncovered suffix.
	var got memApply
	l2, err := OpenLog(fs, LogOptions{}, 50, got.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got.recs) != 45 {
		t.Fatalf("replayed %d, want 45", len(got.recs))
	}
	for i, c := range got.recs {
		if c != cs[50+i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	fs := testFS(t)
	l, err := OpenLog(fs, LogOptions{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]CheckIn{{POI: 1, At: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]CheckIn{{POI: 1, At: 2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestNoSyncStillReplays(t *testing.T) {
	fs := testFS(t)
	l, err := OpenLog(fs, LogOptions{NoSync: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := corpus(30, 4)
	if _, err := l.Append(cs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got memApply
	l2, err := OpenLog(fs, LogOptions{NoSync: true}, 0, got.fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got.recs) != len(cs) {
		t.Fatalf("replayed %d, want %d", len(got.recs), len(cs))
	}
}

func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 10 * frameSize}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus(40, 5) {
		if _, err := l.Append([]CheckIn{c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if _, ok := parseSegmentName(n); ok {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Shorten a middle segment: that is corruption, not a torn tail.
	mid := segs[1]
	size, err := fs.Size(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(mid, size-4); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(fs, LogOptions{}, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt middle segment: err = %v, want ErrCorrupt", err)
	}
}
