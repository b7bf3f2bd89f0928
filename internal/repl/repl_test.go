package repl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/tia"
	"tartree/internal/wal"
)

const (
	testPOIs    = 16
	testEpochLn = 100
	testToken   = "repl-test-secret"
)

// newBaseTree mirrors the deterministic base tree the wal store tests use:
// testPOIs POIs over a 100x100 world, uniform epochs. Leader and follower
// start from the same base, as a real deployment's would.
func newBaseTree() (*core.Tree, error) {
	tr, err := core.NewTree(core.Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		EpochStart:  0,
		EpochLength: testEpochLn,
	})
	if err != nil {
		return nil, err
	}
	for id := int64(1); id <= testPOIs; id++ {
		p := core.POI{ID: id, X: float64(id*13%97) + 1, Y: float64(id*29%89) + 2}
		if err := tr.InsertPOI(p, nil); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func testFS(t *testing.T) *wal.DirFS {
	t.Helper()
	fs, err := wal.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func corpus(n int, seed int64) []wal.CheckIn {
	r := rand.New(rand.NewSource(seed))
	cs := make([]wal.CheckIn, n)
	for i := range cs {
		cs[i] = wal.CheckIn{POI: int64(r.Intn(testPOIs) + 1), At: int64(i * 3)}
	}
	return cs
}

// assertStoresAgree flushes both stores to the same horizon and requires
// them answer-identical: every POI's aggregate over the full interval and a
// battery of kNNTA queries.
func assertStoresAgree(t *testing.T, leader, follower *wal.Store, horizon int64) {
	t.Helper()
	if err := leader.FlushEpochs(horizon); err != nil {
		t.Fatal(err)
	}
	if err := follower.FlushEpochs(horizon); err != nil {
		t.Fatal(err)
	}
	iv := tia.Interval{Start: 0, End: horizon}
	want := make(map[int64]int64, testPOIs)
	leader.View(func(tr *core.Tree) {
		for id := int64(1); id <= testPOIs; id++ {
			v, err := tr.Aggregate(id, iv)
			if err != nil {
				t.Fatal(err)
			}
			want[id] = v
		}
	})
	follower.View(func(tr *core.Tree) {
		if err := tr.Check(); err != nil {
			t.Fatalf("follower tree invariant: %v", err)
		}
		// Follower == leader is proved on what a server runs: the bootstrap
		// builds in-memory TIAs, the core default.
		if _, ok := tr.Options().TIA.(*tia.MemFactory); !ok {
			t.Fatalf("follower tree runs on %T, want the in-memory default", tr.Options().TIA)
		}
		for id := int64(1); id <= testPOIs; id++ {
			v, err := tr.Aggregate(id, iv)
			if err != nil {
				t.Fatal(err)
			}
			if v != want[id] {
				t.Fatalf("POI %d: follower aggregate %d, leader %d", id, v, want[id])
			}
		}
	})
	for trial := 0; trial < 5; trial++ {
		q := core.Query{
			X: float64(11 + trial*17), Y: float64(7 + trial*13),
			Iq:     tia.Interval{Start: int64(trial * 50), End: horizon},
			K:      4,
			Alpha0: 0.4,
		}
		a, _, err := leader.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := follower.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d results on leader, %d on follower", trial, len(a), len(b))
		}
		scores := make(map[int64]float64, len(a))
		for _, r := range a {
			scores[r.POI.ID] = r.Score
		}
		for _, r := range b {
			lw, ok := scores[r.POI.ID]
			if !ok {
				t.Fatalf("query %d: POI %d only on follower", trial, r.POI.ID)
			}
			if math.Abs(r.Score-lw) > 1e-9 {
				t.Fatalf("query %d: POI %d score %.12f vs leader %.12f", trial, r.POI.ID, r.Score, lw)
			}
		}
	}
}

// replTestCluster is one leader store behind an httptest server.
type replTestCluster struct {
	leader  *wal.Store
	metrics *Metrics
	srv     *httptest.Server
}

func startLeader(t *testing.T, opts wal.StoreOptions, ld *Leader) *replTestCluster {
	t.Helper()
	opts.NoSync = true
	s, err := wal.OpenStore(testFS(t), newBaseTree, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	m := NewMetrics(obs.NewRegistry())
	if ld == nil {
		ld = &Leader{}
	}
	ld.Store, ld.Token, ld.Metrics = s, testToken, m
	mux := http.NewServeMux()
	ld.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &replTestCluster{leader: s, metrics: m, srv: srv}
}

func followerOptions(c *replTestCluster, w *Watermark, m *Metrics) FollowerOptions {
	return FollowerOptions{
		LeaderURL: c.srv.URL,
		Token:     testToken,
		Watermark: w,
		Metrics:   m,
		RetryMin:  time.Millisecond,
		RetryMax:  50 * time.Millisecond,
	}
}

// TestLeaderFollowerConvergence is the tentpole's happy path with no sleeps
// anywhere: bootstrap from a live snapshot, tail concurrent leader ingest,
// park on the watermark for read-your-writes, finish answer-identical.
func TestLeaderFollowerConvergence(t *testing.T) {
	cs := corpus(500, 31)
	horizon := int64(500*3 + 2*testEpochLn)
	c := startLeader(t, wal.StoreOptions{}, nil)
	if _, err := c.leader.Ingest(cs[:300]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fFS := testFS(t)
	w := NewWatermark()
	fm := NewMetrics(obs.NewRegistry())
	opts := followerOptions(c, w, fm)
	lsn, downloaded, err := Bootstrap(ctx, fFS, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !downloaded || lsn != 300 {
		t.Fatalf("bootstrap: downloaded=%v lsn=%d, want true/300", downloaded, lsn)
	}
	fstore, err := wal.OpenStore(fFS, func() (*core.Tree, error) {
		t.Fatal("base tree rebuilt despite bootstrapped snapshot")
		return nil, nil
	}, wal.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	if got := fstore.AppliedLSN(); got != 300 {
		t.Fatalf("bootstrapped applied LSN %d, want 300", got)
	}
	w.Advance(fstore.AppliedLSN())

	runCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	f := &Follower{Store: fstore, Opts: opts}
	go func() { done <- f.Run(runCtx) }()

	// Concurrent leader ingest while the follower tails; the ack LSN is the
	// read-your-writes token clients would pass as min_lsn.
	ack, err := c.leader.Ingest(cs[300:])
	if err != nil {
		t.Fatal(err)
	}
	if ack != 500 {
		t.Fatalf("leader ack LSN %d, want 500", ack)
	}
	if err := w.Wait(ctx, ack); err != nil {
		t.Fatalf("waiting for replication of LSN %d: %v", ack, err)
	}
	if got := fstore.AppliedLSN(); got != 500 {
		t.Fatalf("follower applied %d after watermark hit 500", got)
	}
	stop()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run exit: %v", err)
	}

	assertStoresAgree(t, c.leader, fstore, horizon)
	if n := c.metrics.SnapshotsServed.Value(); n != 1 {
		t.Fatalf("snapshots served = %d, want 1", n)
	}
	if n := fm.RecordsApplied.Value(); n != 200 {
		t.Fatalf("records applied = %d, want 200", n)
	}
	if got := fm.AppliedLSN(); got != 500 {
		t.Fatalf("metrics applied LSN = %d", got)
	}
}

// TestFollowerRestartResumesWithoutReBootstrap pins the durable-WAL-copy
// property: a follower restart recovers locally and resumes tailing from
// its own applied LSN — the leader serves no second snapshot.
func TestFollowerRestartResumesWithoutReBootstrap(t *testing.T) {
	cs := corpus(400, 32)
	horizon := int64(400*3 + 2*testEpochLn)
	c := startLeader(t, wal.StoreOptions{}, nil)
	if _, err := c.leader.Ingest(cs[:200]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fFS := testFS(t)
	w := NewWatermark()
	opts := followerOptions(c, w, nil)
	if _, downloaded, err := Bootstrap(ctx, fFS, opts); err != nil || !downloaded {
		t.Fatalf("first bootstrap: downloaded=%v err=%v", downloaded, err)
	}
	fstore, err := wal.OpenStore(fFS, newBaseTree, wal.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- (&Follower{Store: fstore, Opts: opts}).Run(runCtx) }()
	ack, err := c.leader.Ingest(cs[200:300])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(ctx, ack); err != nil {
		t.Fatal(err)
	}
	stop()
	<-done
	if err := fstore.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory: no download, local recovery to 300.
	if lsn, downloaded, err := Bootstrap(ctx, fFS, opts); err != nil || downloaded || lsn != 0 {
		t.Fatalf("re-bootstrap on populated dir: lsn=%d downloaded=%v err=%v", lsn, downloaded, err)
	}
	if n := c.metrics.SnapshotsServed.Value(); n != 1 {
		t.Fatalf("restart re-downloaded the snapshot (%d served)", n)
	}
	fstore2, err := wal.OpenStore(fFS, func() (*core.Tree, error) {
		t.Fatal("base tree rebuilt on restart")
		return nil, nil
	}, wal.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore2.Close()
	if got := fstore2.AppliedLSN(); got != 300 {
		t.Fatalf("restart recovered applied LSN %d, want 300", got)
	}

	w2 := NewWatermark()
	opts2 := followerOptions(c, w2, nil)
	runCtx2, stop2 := context.WithCancel(ctx)
	go func() { done <- (&Follower{Store: fstore2, Opts: opts2}).Run(runCtx2) }()
	ack2, err := c.leader.Ingest(cs[300:])
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Wait(ctx, ack2); err != nil {
		t.Fatal(err)
	}
	stop2()
	<-done
	assertStoresAgree(t, c.leader, fstore2, horizon)
}

// TestStreamReconnectAcrossCleanCloses forces tiny per-connection budgets so
// the follower must reconnect many times mid-corpus and still converge.
func TestStreamReconnectAcrossCleanCloses(t *testing.T) {
	cs := corpus(300, 33)
	horizon := int64(300*3 + 2*testEpochLn)
	c := startLeader(t, wal.StoreOptions{}, &Leader{ChunkRecords: 7, MaxStreamRecords: 20})
	if _, err := c.leader.Ingest(cs[:50]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fFS := testFS(t)
	w := NewWatermark()
	opts := followerOptions(c, w, nil)
	if _, _, err := Bootstrap(ctx, fFS, opts); err != nil {
		t.Fatal(err)
	}
	fstore, err := wal.OpenStore(fFS, newBaseTree, wal.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	runCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- (&Follower{Store: fstore, Opts: opts}).Run(runCtx) }()
	ack, err := c.leader.Ingest(cs[50:])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(ctx, ack); err != nil {
		t.Fatal(err)
	}
	stop()
	<-done
	if n := c.metrics.StreamRequests.Value(); n < 10 {
		t.Fatalf("expected many reconnect streams under a 20-record budget, got %d", n)
	}
	assertStoresAgree(t, c.leader, fstore, horizon)
}

func TestLeaderAuth(t *testing.T) {
	// The happy-path probe of /v1/repl/wal parks in the idle long-poll;
	// a short timeout keeps the test fast.
	c := startLeader(t, wal.StoreOptions{}, &Leader{PollTimeout: 10 * time.Millisecond})
	get := func(path, token string) int {
		req, err := http.NewRequest(http.MethodGet, c.srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/v1/repl/snapshot", "/v1/repl/wal?from=1"} {
		if code := get(path, ""); code != http.StatusUnauthorized {
			t.Errorf("%s without token: %d, want 401", path, code)
		}
		if code := get(path, "wrong"); code != http.StatusUnauthorized {
			t.Errorf("%s with bad token: %d, want 401", path, code)
		}
		if code := get(path, testToken); code != http.StatusOK {
			t.Errorf("%s with token: %d, want 200", path, code)
		}
	}
	// from beyond durable+1 is divergence.
	if code := get("/v1/repl/wal?from=999", testToken); code != http.StatusConflict {
		t.Errorf("diverged from: %d, want 409", code)
	}
	if code := get("/v1/repl/wal?from=0", testToken); code != http.StatusBadRequest {
		t.Errorf("from=0: %d, want 400", code)
	}

	// A leader with no token refuses replication outright.
	off := startLeader(t, wal.StoreOptions{}, nil)
	mux := http.NewServeMux()
	(&Leader{Store: off.leader, Token: ""}).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/repl/snapshot", nil)
	req.Header.Set("Authorization", "Bearer ")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("disabled replication: %d, want 403", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	badOpts := FollowerOptions{LeaderURL: c.srv.URL, Token: "wrong"}
	if _, _, err := Bootstrap(ctx, testFS(t), badOpts); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("bootstrap with bad token: %v, want ErrUnauthorized", err)
	}
}

// TestTruncatedLSNRequiresRebootstrap: a follower that slept through a
// leader checkpoint that truncated its position gets 410 and Run surfaces
// ErrSnapshotRequired instead of silently diverging.
func TestTruncatedLSNRequiresRebootstrap(t *testing.T) {
	cs := corpus(300, 34)
	c := startLeader(t, wal.StoreOptions{SegmentBytes: 1 << 10}, nil)
	if _, err := c.leader.Ingest(cs[:50]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fFS := testFS(t)
	opts := followerOptions(c, nil, nil)
	if _, _, err := Bootstrap(ctx, fFS, opts); err != nil {
		t.Fatal(err)
	}
	fstore, err := wal.OpenStore(fFS, newBaseTree, wal.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()

	// While the follower is down, the leader moves on and checkpoints: the
	// segments holding LSN 51.. are deleted. Small batches force rotations
	// so truncation has whole segments to delete past the follower's LSN.
	for i := 50; i < len(cs); i += 10 {
		if _, err := c.leader.Ingest(cs[i : i+10]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if oldest := c.leader.Log().OldestLSN(); oldest <= 51 {
		t.Fatalf("checkpoint kept LSN 51 (oldest %d); test needs truncation", oldest)
	}
	err = (&Follower{Store: fstore, Opts: opts}).Run(ctx)
	if !errors.Is(err, ErrSnapshotRequired) {
		t.Fatalf("Run on truncated position: %v, want ErrSnapshotRequired", err)
	}
}

func TestWatermark(t *testing.T) {
	w := NewWatermark()
	if w.Value() != 0 {
		t.Fatal("fresh watermark not at 0")
	}
	w.Advance(10)
	w.Advance(5) // regression ignored
	if v := w.Value(); v != 10 {
		t.Fatalf("value %d, want 10", v)
	}
	if err := w.Wait(context.Background(), 10); err != nil {
		t.Fatalf("wait at reached LSN: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Wait(context.Background(), 11) }()
	w.Advance(11)
	if err := <-done; err != nil {
		t.Fatalf("wait across advance: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- w.Wait(ctx, 99) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait: %v", err)
	}
}
