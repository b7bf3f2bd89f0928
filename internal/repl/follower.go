package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"tartree/internal/wal"
)

// ErrSnapshotRequired reports that the leader has truncated the LSN the
// follower needs (410 Gone): its WAL position was covered by a checkpoint
// and deleted, so tailing cannot resume. The operator restarts the
// follower with an empty data directory to re-bootstrap; an automatic
// wipe of a directory holding durable state is not this package's call.
var ErrSnapshotRequired = errors.New("repl: leader truncated our LSN; re-bootstrap from snapshot required")

// ErrUnauthorized reports a token the leader rejected — misconfiguration
// that retrying will not fix.
var ErrUnauthorized = errors.New("repl: leader rejected replication token")

// ErrDiverged reports that the follower's WAL runs ahead of the leader's
// (409 Conflict) — it replicated from a different leader or the leader
// lost acknowledged data. Unrecoverable without operator intervention.
var ErrDiverged = errors.New("repl: follower WAL is ahead of leader (diverged)")

// FollowerOptions configures Bootstrap and Follower.
type FollowerOptions struct {
	// LeaderURL is the leader's base URL, e.g. http://leader:7501.
	LeaderURL string
	// Token is the shared replication secret.
	Token string
	// Client issues the HTTP requests; nil means a dedicated client with
	// no overall timeout (streams are long-lived; cancellation comes from
	// the Run context).
	Client *http.Client

	Metrics *Metrics
	// Watermark, when set, is advanced after every applied batch — the
	// server's min_lsn queries park on it.
	Watermark *Watermark

	// BatchMax caps records per ApplyReplicated call. After one blocking
	// frame read the tail loop drains only already-buffered frames up to
	// this bound, so a quiet stream never delays an apply. 0 means 512.
	BatchMax int
	// RetryMin/RetryMax bound the jittered exponential reconnect backoff.
	// Zero values mean 100ms and 5s.
	RetryMin, RetryMax time.Duration
	// Logf, when set, receives reconnect/backoff noise.
	Logf func(format string, args ...any)
}

func (o *FollowerOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return &http.Client{}
}

func (o *FollowerOptions) batchMax() int {
	if o.BatchMax > 0 {
		return o.BatchMax
	}
	return 512
}

func (o *FollowerOptions) retryMin() time.Duration {
	if o.RetryMin > 0 {
		return o.RetryMin
	}
	return 100 * time.Millisecond
}

func (o *FollowerOptions) retryMax() time.Duration {
	if o.RetryMax > 0 {
		return o.RetryMax
	}
	return 5 * time.Second
}

func (o *FollowerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *FollowerOptions) newRequest(ctx context.Context, path string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.LeaderURL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+o.Token)
	return req, nil
}

// Bootstrap prepares a follower's WAL directory. If the directory already
// holds state (a checkpoint or segments from an earlier run), it does
// nothing — the caller's normal OpenStore recovers locally and tailing
// resumes from the follower's own durable LSN, no re-download. Otherwise
// it fetches the leader's snapshot and installs it atomically as a local
// checkpoint (tmp + fsync + rename), so a crash mid-download leaves only
// a checkpoint.tmp that recovery already ignores and cleans.
//
// It returns the snapshot LSN and whether a download happened.
func Bootstrap(ctx context.Context, fs wal.FS, opts FollowerOptions) (uint64, bool, error) {
	has, err := wal.DirHasState(fs)
	if err != nil {
		return 0, false, err
	}
	if has {
		return 0, false, nil
	}
	req, err := opts.newRequest(ctx, "/v1/repl/snapshot")
	if err != nil {
		return 0, false, err
	}
	resp, err := opts.client().Do(req)
	if err != nil {
		return 0, false, fmt.Errorf("repl: fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusUnauthorized, http.StatusForbidden:
		return 0, false, ErrUnauthorized
	default:
		return 0, false, fmt.Errorf("repl: snapshot request: %s", resp.Status)
	}
	lsn, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotLSN), 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("repl: snapshot response missing %s", HeaderSnapshotLSN)
	}
	if err := wal.InstallCheckpoint(fs, lsn, resp.Body); err != nil {
		return 0, false, fmt.Errorf("repl: installing snapshot: %w", err)
	}
	return lsn, true, nil
}

// localError marks a failure of the follower's own store — appending or
// applying a batch locally. Reconnecting the stream cannot fix those, so
// Run treats them as fatal rather than retrying.
type localError struct{ err error }

func (e localError) Error() string { return "repl: local apply failed: " + e.err.Error() }
func (e localError) Unwrap() error { return e.err }

// Follower tails a leader's WAL stream into a local store. The store was
// opened normally (after Bootstrap prepared the directory), so every
// applied batch is re-logged to the follower's own WAL and folded into
// its tree through the exact path local ingest uses.
type Follower struct {
	Store *wal.Store
	Opts  FollowerOptions
}

// Run tails until ctx ends (returns ctx.Err()) or an unrecoverable
// condition surfaces (ErrSnapshotRequired, ErrUnauthorized, ErrDiverged,
// or a local apply/durability failure). Transient stream errors reconnect
// with jittered exponential backoff, resuming from the follower's own
// applied LSN.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.Opts.retryMin()
	for {
		madeProgress, err := f.streamOnce(ctx)
		switch {
		case err == nil:
			// Clean close (idle long-poll expiry or per-connection record
			// budget): reconnect immediately, the stream is the clock.
			backoff = f.Opts.retryMin()
			continue
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, ErrSnapshotRequired), errors.Is(err, ErrUnauthorized), errors.Is(err, ErrDiverged):
			return err
		case errors.Is(err, wal.ErrClosed):
			// Local store shut down under us: an orderly exit, not a fault.
			return err
		case errors.As(err, &localError{}):
			return err
		}
		if madeProgress {
			backoff = f.Opts.retryMin()
		}
		f.Opts.Metrics.addReconnect()
		f.Opts.logf("repl: stream dropped at LSN %d: %v (retrying in %v)", f.Store.AppliedLSN(), err, backoff)
		// Jitter ±50% so a fleet of followers does not reconnect in phase.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > f.Opts.retryMax() {
			backoff = f.Opts.retryMax()
		}
	}
}

// streamOnce opens one /v1/repl/wal connection and applies frames until
// the stream ends. It reports whether any batch was applied, and nil on a
// clean end-of-stream.
func (f *Follower) streamOnce(ctx context.Context) (bool, error) {
	from := f.Store.AppliedLSN() + 1
	req, err := f.Opts.newRequest(ctx, "/v1/repl/wal?from="+strconv.FormatUint(from, 10))
	if err != nil {
		return false, err
	}
	resp, err := f.Opts.client().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return false, ErrSnapshotRequired
	case http.StatusConflict:
		return false, ErrDiverged
	case http.StatusUnauthorized, http.StatusForbidden:
		return false, ErrUnauthorized
	default:
		return false, fmt.Errorf("repl: wal stream request: %s", resp.Status)
	}
	leaderDurable, _ := strconv.ParseUint(resp.Header.Get(HeaderDurableLSN), 10, 64)

	sc := wal.NewFrameScanner(resp.Body, from)
	batch := make([]wal.CheckIn, 0, f.Opts.batchMax())
	progressed := false
	for {
		// One blocking read, then drain whatever is already buffered so a
		// quiet stream applies immediately and a busy one applies in bulk.
		first := from
		batch = batch[:0]
		_, c, err := sc.Next()
		if err != nil {
			if err == io.EOF {
				return progressed, nil // clean close: reconnect without backoff
			}
			return progressed, err
		}
		batch = append(batch, c)
		for n := sc.Buffered(); n > 0 && len(batch) < f.Opts.batchMax(); n-- {
			if _, c, err = sc.Next(); err != nil {
				break
			}
			batch = append(batch, c)
		}
		applied, aerr := f.Store.ApplyReplicated(first, batch)
		if aerr != nil {
			return progressed, localError{aerr}
		}
		progressed = true
		from = first + uint64(len(batch))
		if f.Opts.Watermark != nil {
			f.Opts.Watermark.Advance(applied)
		}
		f.Opts.Metrics.addRecordsApplied(len(batch))
		f.Opts.Metrics.ObserveApplied(applied, leaderDurable)
		if err != nil && err != io.EOF {
			// The scanner error captured during the drain (torn frame,
			// corruption): surface after applying the good prefix.
			return progressed, err
		}
		if err == io.EOF {
			return progressed, nil
		}
	}
}
