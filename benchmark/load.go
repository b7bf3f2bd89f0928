package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tartree/internal/client"
	"tartree/internal/core"
)

// hit is what the oracle checks of one returned POI.
type hit struct {
	id    int64
	score float64
}

// sample is one query request as the load generator saw it. Times are
// offsets from the start of its window.
type sample struct {
	slot     int32 // pool slot of the query, the oracle's memo key
	due      time.Duration
	sent     time.Duration
	done     time.Duration
	serverUS int64 // the response's elapsed_us
	hits     []hit
	work     work
	err      error // transport error, non-200, or (set by verify) a wrong answer
	dropped  bool  // open loop only: never sent, the in-flight cap was reached
}

// work is the response's stats block: the search's work counters.
type work struct {
	internal, leaf, scored int
	tia, tiaPhysical       int64
}

// driver sends one repetition's traffic to one fleet.
type driver struct {
	remote *client.Remote
	base   string
	http   *http.Client
	stream *stream
	cursor atomic.Int64 // next stream index; shared by every window of the repetition

	// rec, when set, records spans of every request sent (the traced window);
	// traced lists those requests for the in-process replay.
	rec    *recorder
	mu     sync.Mutex
	traced []tracedSample
}

func newDriver(base string, s *stream) *driver {
	// Keep-alive connections, one per request in flight: the default of two
	// idle connections per host would reconnect on every open-loop burst.
	tr := &http.Transport{
		MaxIdleConns:        maxInFlight,
		MaxIdleConnsPerHost: maxInFlight,
		DisableCompression:  true,
	}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return &driver{
		remote: &client.Remote{BaseURL: base, Client: hc},
		base:   base,
		http:   hc,
		stream: s,
	}
}

func (d *driver) close() { d.http.CloseIdleConnections() }

// next claims the next stream index.
func (d *driver) next() int { return int(d.cursor.Add(1) - 1) }

// send runs query idx of the stream through client.Remote.
func (d *driver) send(ctx context.Context, start time.Time, due time.Duration, idx int, opts *core.QueryOpts) sample {
	q, slot := d.stream.query(idx)
	s := sample{slot: slot, due: due, sent: time.Since(start)}
	resp, err := d.remote.Do(ctx, q, opts)
	s.done = time.Since(start)
	if err != nil {
		s.err = err
		return s
	}
	s.serverUS = resp.ElapsedMicros
	if rec := d.rec; rec != nil {
		// The server reports how long it worked, not when: centre its span
		// in the round trip.
		base := start.Sub(rec.t0)
		server := time.Duration(resp.ElapsedMicros) * time.Microsecond
		lead := max(s.done-s.sent-server, 0) / 2
		rec.add(idx, "client.roundtrip", "", base+s.sent, base+s.done)
		rec.add(idx, "tarserve.server", "client.roundtrip", base+s.sent+lead, base+s.sent+lead+server)
		d.mu.Lock()
		d.traced = append(d.traced, tracedSample{request: idx, slot: slot, sent: base + s.sent, server: base + s.sent + lead,
			cacheHit: resp.Stats.ResultCacheHit})
		d.mu.Unlock()
	}
	s.hits = make([]hit, len(resp.Results))
	for i, r := range resp.Results {
		s.hits[i] = hit{id: r.POI.ID, score: r.Score}
	}
	st := &resp.Stats
	s.work = work{internal: st.InternalAccesses, leaf: st.LeafAccesses, scored: st.Scored,
		tia: st.TIAAccesses, tiaPhysical: st.TIAPhysical}
	return s
}

// window is the outcome of one closed- or open-loop window.
type window struct {
	length  time.Duration
	samples []sample
}

// closedLoop drives `clients` callers that each wait for a reply before
// sending the next request, for the given length.
func (d *driver) closedLoop(ctx context.Context, clients int, length time.Duration, opts *core.QueryOpts) window {
	start := time.Now()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				now := time.Since(start)
				if now >= length {
					return
				}
				per[c] = append(per[c], d.send(ctx, start, now, d.next(), opts))
			}
		}(c)
	}
	wg.Wait()
	w := window{length: length}
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	return w
}

// openLoop sends requests on the stream's Poisson schedule at the given
// rate whether or not earlier ones were answered: independent users. A
// request's latency counts from its due time, so a stall is charged to every
// request it delays.
func (d *driver) openLoop(ctx context.Context, rate float64, length time.Duration, opts *core.QueryOpts) window {
	start := time.Now()
	mean := float64(time.Second) / rate
	var (
		mu       sync.Mutex
		samples  []sample
		wg       sync.WaitGroup
		inFlight atomic.Int64
	)
	due := time.Duration(0)
	for i := 0; ctx.Err() == nil; i++ {
		due += time.Duration(d.stream.gaps[i%len(d.stream.gaps)] * mean)
		if due >= length {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if inFlight.Load() >= maxInFlight {
			mu.Lock()
			samples = append(samples, sample{due: due, dropped: true,
				err: fmt.Errorf("dropped: %d requests already in flight", maxInFlight)})
			mu.Unlock()
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(due time.Duration, idx int) {
			defer wg.Done()
			s := d.send(ctx, start, due, idx, opts)
			inFlight.Add(-1)
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}(due, d.next())
	}
	wg.Wait()
	return window{length: length, samples: samples}
}

// ack is one acknowledged (or failed) ingest batch.
type ack struct {
	due, done time.Duration // offsets from the start of the feed
	lsn       uint64
	count     int
	err       error
}

// ingestFeed posts the stream's batches at ingestRate from one connection, in
// order, until ctx ends: one device feed. A batch that comes due while the
// previous one is unacknowledged waits, and the wait counts in its latency.
// from is the first batch to send.
func (d *driver) ingestFeed(ctx context.Context, start time.Time, from int) []ack {
	var acks []ack
	for i := from; i < len(d.stream.batches); i++ {
		due := time.Duration(float64(i-from) / ingestRate * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			select {
			case <-ctx.Done():
				return acks
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			return acks
		}
		a := ack{due: due, count: len(d.stream.batches[i])}
		a.lsn, a.err = d.ingest(d.stream.batches[i])
		a.done = time.Since(start)
		acks = append(acks, a)
	}
	return acks
}

// ingest posts one batch. It does not take the feed's context: a batch in
// flight when the window ends is awaited, so the last ack is known.
func (d *driver) ingest(batch []ingestItem) (uint64, error) {
	body, err := json.Marshal(map[string]any{"checkins": batch})
	if err != nil {
		return 0, err
	}
	resp, err := d.http.Post(d.base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("ingest: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out struct {
		Count int    `json:"count"`
		LSN   uint64 `json:"lsn"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("ingest: decoding ack: %w", err)
	}
	if out.Count != len(batch) {
		return 0, fmt.Errorf("ingest: acked %d of %d check-ins", out.Count, len(batch))
	}
	return out.LSN, nil
}
