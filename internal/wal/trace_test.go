package wal

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"tartree/internal/obs"
)

// TestIngestTraceSpans verifies the per-request ingest span tree: a traced
// IngestCtx produces validate → wal_append (with a nested fsync_batch
// durable wait) → apply under the caller's root span.
func TestIngestTraceSpans(t *testing.T) {
	fs := testFS(t)
	sink := obs.NewTraceRing(16)
	s, err := OpenStore(fs, newBaseTree, StoreOptions{TraceSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	root := obs.StartTrace("ingest_request", obs.SpanContext{}, sink)
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := s.IngestCtx(ctx, corpus(5, 3)); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	ft := sink.Find(root.Context().TraceID)
	if ft == nil {
		t.Fatal("ingest trace not delivered")
	}
	for _, name := range []string{"validate", "wal_append", "fsync_batch", "apply"} {
		if ft.Find(name) == nil {
			var buf bytes.Buffer
			ft.WriteTree(&buf)
			t.Fatalf("trace missing span %q:\n%s", name, buf.String())
		}
	}
	if fb := ft.Find("fsync_batch"); fb.Parent != ft.Find("wal_append").ID {
		t.Fatal("fsync_batch must nest under wal_append")
	}
	if ft.Find("validate").Parent != ft.Root().ID {
		t.Fatal("validate must be a direct child of the request root")
	}
	// The stages are siblings ordered validate < wal_append < apply.
	if va, wa := ft.Find("validate"), ft.Find("wal_append"); va.End.After(wa.Start) {
		t.Fatal("validate must end before wal_append starts")
	}
}

// TestBatchTraceLinksMembers drives concurrent ingests against a slow-fsync
// FS so the committer coalesces them, then checks that a wal_commit_batch
// trace links at least two member fsync_batch spans from distinct traces.
func TestBatchTraceLinksMembers(t *testing.T) {
	slow := &SlowFS{FS: testFS(t), SyncDelay: 20 * time.Millisecond}
	sink := obs.NewTraceRing(64)
	s, err := OpenStore(slow, newBaseTree, StoreOptions{TraceSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// First ingest occupies the committer in its slow fsync; the rest pile
	// up in the queue and ride one batch.
	const writers = 6
	var wg sync.WaitGroup
	memberIDs := make([]obs.TraceID, writers)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := obs.StartTrace("ingest_request", obs.SpanContext{}, sink)
			memberIDs[i] = root.Context().TraceID
			ctx := obs.ContextWithSpan(context.Background(), root)
			if _, err := s.IngestCtx(ctx, []CheckIn{{POI: int64(i%testPOIs) + 1, At: int64(i)}}); err != nil {
				t.Error(err)
			}
			root.Finish()
		}()
	}
	wg.Wait()

	members := make(map[obs.TraceID]bool, writers)
	for _, id := range memberIDs {
		members[id] = true
	}
	best := 0
	for _, ft := range sink.Traces() {
		if ft.Root().Name != "wal_commit_batch" {
			continue
		}
		linked := make(map[obs.TraceID]bool)
		for _, link := range ft.Root().Links {
			if members[link.TraceID] {
				linked[link.TraceID] = true
			}
		}
		if len(linked) > best {
			best = len(linked)
		}
		if ft.Find("fsync") == nil {
			t.Error("batch trace missing fsync child span")
		}
	}
	if best < 2 {
		t.Fatalf("no batch trace links >= 2 member ingests (best %d); group commit did not coalesce", best)
	}
}

// TestFlushAndCheckpointTraces checks the background-maintenance traces and
// the fsync-stall histogram exposure.
func TestFlushAndCheckpointTraces(t *testing.T) {
	fs := testFS(t)
	sink := obs.NewTraceRing(16)
	reg := obs.NewRegistry()
	s, err := OpenStore(fs, newBaseTree, StoreOptions{TraceSink: sink, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Ingest(corpus(50, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushObserved(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, ft := range sink.Traces() {
		names = append(names, ft.Root().Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "epoch_flush") {
		t.Fatalf("no epoch_flush trace in %q", joined)
	}
	if !strings.Contains(joined, "checkpoint") {
		t.Fatalf("no checkpoint trace in %q", joined)
	}
	for _, ft := range sink.Traces() {
		if ft.Root().Name == "checkpoint" {
			if ft.Find("encode") == nil || ft.Find("write_install") == nil {
				t.Fatal("checkpoint trace missing encode/write_install children")
			}
		}
	}

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"tartree_wal_fsync_stall_seconds_count",
		"tartree_wal_checkpoint_duration_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
