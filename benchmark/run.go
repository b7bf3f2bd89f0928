package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"tartree/internal/lbsn"
)

// config is what one run needs besides the workload: where things live and
// how long to measure. Only tests change spec and scale.
type config struct {
	outDir  string // benchmark/out: binary, logs, WAL and shard-map scratch, span files
	bin     string // the built tarserve
	spec    lbsn.Spec
	scale   float64
	seed    int64
	seconds float64       // measured time of one run, all windows together
	warmup  time.Duration // per repetition, discarded
	clients int           // closed-loop client count C
	log     io.Writer     // progress and the per-window detail
}

func (c *config) closedLen() time.Duration {
	return time.Duration(c.seconds * closedShare / reps * float64(time.Second))
}

func (c *config) openLen() time.Duration {
	return time.Duration(c.seconds * (1 - closedShare) / reps * float64(time.Second))
}

// span is the longest time one fleet is driven: the stream is sized by it.
func (c *config) span() time.Duration {
	return c.warmup + time.Duration(c.seconds*float64(time.Second)) + time.Second
}

// timedWindow is one measured window.
type timedWindow struct {
	window
	cpu  time.Duration // server CPU over the window (closed windows)
	self time.Duration // harness CPU over the window (open windows)
}

// liveRun is the raw outcome of the fleet that served traffic.
type liveRun struct {
	warm      window
	closed    [reps]timedWindow
	open      [reps]timedWindow
	rssMiB    float64
	acks      []ack // durable-mixed: the whole feed, warm-up included
	invariant error // a broken post-run invariant (LSNs, applied_lsn)
}

// drive sends the run's traffic to a ready fleet: warm-up, then `reps`
// closed-loop windows, then `reps` open-loop windows, with a calibration
// sample between any two.
func drive(ctx context.Context, cfg *config, wl workload, f *fleet, s *stream, cal *calibration) (*liveRun, error) {
	d := newDriver(f.front.url, s)
	defer d.close()
	r := &liveRun{}

	feedCtx, stopFeed := context.WithCancel(ctx)
	defer stopFeed()
	feedDone := make(chan struct{})
	if wl.topo == topoDurable {
		go func() {
			defer close(feedDone)
			r.acks = d.ingestFeed(feedCtx, time.Now(), 0)
		}()
	} else {
		close(feedDone)
	}

	r.warm = d.closedLoop(ctx, cfg.clients, cfg.warmup, nil)
	cal.sample()
	for i := range r.closed {
		cpu0, err := f.serverCPU()
		if err != nil {
			return nil, err
		}
		win := d.closedLoop(ctx, cfg.clients, cfg.closedLen(), nil)
		cpu1, err := f.serverCPU()
		if err != nil {
			return nil, err
		}
		cal.sample()
		r.closed[i] = timedWindow{window: win, cpu: cpu1 - cpu0}
	}
	for i := range r.open {
		self0, err := cpuTime(os.Getpid())
		if err != nil {
			return nil, err
		}
		win := d.openLoop(ctx, wl.rate, cfg.openLen(), nil)
		self1, err := cpuTime(os.Getpid())
		if err != nil {
			return nil, err
		}
		cal.sample()
		r.open[i] = timedWindow{window: win, self: self1 - self0}
	}
	stopFeed()
	<-feedDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := f.alive(); err != nil {
		return nil, err
	}
	var err error
	if r.rssMiB, err = f.peakRSS(); err != nil {
		return nil, err
	}
	if wl.topo == topoDurable {
		r.invariant = checkAcks(r.acks, f)
	}
	return r, nil
}

// checkAcks asserts what a durable ingest path promises: every batch acked,
// ack LSNs strictly increasing (one feed, in order), and the server's
// applied_lsn equal to the last ack once the feed has stopped.
func checkAcks(acks []ack, f *fleet) error {
	var last uint64
	for i, a := range acks {
		if a.err != nil {
			continue // counted as a failed operation, not as a broken invariant
		}
		if a.lsn <= last {
			return fmt.Errorf("ack %d: LSN %d after %d, not increasing", i, a.lsn, last)
		}
		last = a.lsn
	}
	doc, err := f.healthz()
	if err != nil {
		return err
	}
	wal, _ := doc["wal"].(map[string]any)
	applied, ok := wal["applied_lsn"].(float64)
	if !ok {
		return errors.New("healthz has no wal.applied_lsn")
	}
	if uint64(applied) != last {
		return fmt.Errorf("applied_lsn %d after the run, last ack was %d", uint64(applied), last)
	}
	return nil
}

// outcome is one finished run: the contract's result plus the per-window
// detail printed beside it.
type outcome struct {
	result
	Detail map[string]any `json:"detail"`
}

// judge checks every reply of the windows against the oracle (outside any
// timed code) and fills the run's counts: every request sent and every ingest
// batch is attempted; a transport error, a non-200, a dropped request and a
// wrong answer all fail. Correct turns false on a wrong answer or a broken
// durability invariant.
func (o *outcome) judge(cfg *config, wl workload, orc *oracle, wins []*window, acks []ack, invariant error) error {
	if err := orc.verify(wins...); err != nil {
		return err
	}
	o.Correct = true
	for _, w := range wins {
		for i := range w.samples {
			o.Attempted++
			err := w.samples[i].err
			if err == nil {
				continue
			}
			o.Failed++
			if o.Correct && errors.Is(err, errWrongAnswer) {
				o.Correct = false
				fmt.Fprintf(cfg.log, "%s: %v\n", wl.name, err)
			}
		}
	}
	for _, a := range acks {
		o.Attempted++
		if a.err != nil {
			o.Failed++
		}
	}
	if invariant != nil {
		o.Correct = false
		fmt.Fprintf(cfg.log, "%s: INVARIANT BROKEN: %v\n", wl.name, invariant)
	}
	return nil
}

// measure is the timed run of one workload (tracing off). The fleet is set
// up `reps` times; the last one serves the traffic. Every end-to-end metric
// is the median of its `reps` samples, scaled to the reference machine speed
// (calibrate.go).
func measure(ctx context.Context, cfg *config, wl workload, w *world) (*outcome, error) {
	s := newStream(w, wl, cfg.seed, cfg.span())
	orc := newOracle(w, s)
	var (
		setup []float64
		f     *fleet
		cal   calibration
	)
	for i := 0; i < reps; i++ {
		cal.sample()
		var err error
		if f, err = startFleet(ctx, cfg, wl, w, fmt.Sprintf("-setup%d", i)); err != nil {
			return nil, fmt.Errorf("%s, set-up %d: %w", wl.name, i, err)
		}
		setup = append(setup, f.setup.Seconds())
		if i < reps-1 {
			f.stop()
		}
	}
	defer f.stop()
	r, err := drive(ctx, cfg, wl, f, s, &cal)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}

	out := &outcome{Detail: map[string]any{}}
	wins := []*window{&r.warm}
	for i := range r.closed {
		wins = append(wins, &r.closed[i].window, &r.open[i].window)
	}
	if err := out.judge(cfg, wl, orc, wins, r.acks, r.invariant); err != nil {
		return nil, err
	}

	var (
		qps, p50, cpu []float64
		detail        []map[string]any
	)
	for i := range r.closed {
		cw, ow := &r.closed[i], &r.open[i]
		good := completedWithin(&cw.window)
		if good == 0 {
			return nil, fmt.Errorf("%s, closed window %d: no correct reply: %v", wl.name, i, firstError(&cw.window))
		}
		lat := latencies(&ow.window)
		if len(lat) == 0 {
			return nil, fmt.Errorf("%s, open window %d: no correct reply: %v", wl.name, i, firstError(&ow.window))
		}
		qps = append(qps, float64(good)/cw.length.Seconds())
		cpu = append(cpu, ms(cw.cpu)/float64(good))
		p50 = append(p50, quantile(lat, 0.50))
		health := openHealth(&ow.window, ow.self)
		if health.Saturated || health.GeneratorBusy {
			fmt.Fprintf(cfg.log, "%s, open window %d: not trustworthy: %+v\n", wl.name, i, health)
		}
		detail = append(detail, map[string]any{
			"closed_replies":  good,
			"closed_qps":      float64(good) / cw.length.Seconds(),
			"closed_cpu_ms":   ms(cw.cpu) / float64(good),
			"open_samples":    len(lat),
			"open_p50_ms":     quantile(lat, 0.50),
			"open_p95_ms":     quantile(lat, 0.95),
			"open_beyond_p95": len(lat) - int(math.Ceil(0.95*float64(len(lat)))),
			"open_window":     health,
		})
		fmt.Fprintf(cfg.log, "%s window %d: closed %d replies, open %d replies\n", wl.name, i, good, len(lat))
	}
	// As measured, then scaled to the reference machine speed: a time gets
	// longer and a rate smaller when the machine ran faster than that.
	raw := map[string]value{
		"setup_s":                 {median(setup), "s"},
		"query_qps":               {median(qps), "1/s"},
		"query_p50_ms":            {median(p50), "ms"},
		"server_cpu_ms_per_query": {median(cpu), "ms"},
	}
	sp := cal.speed()
	out.Metrics = map[string]value{"server_rss_mb": {r.rssMiB, "MiB"}}
	for name, v := range raw {
		if name == "query_qps" {
			v.Value /= sp
		} else {
			v.Value *= sp
		}
		out.Metrics[name] = v
	}
	out.Detail["raw"] = raw
	out.Detail["raw_setup_s"] = setup
	out.Detail["machine_speed"] = sp
	out.Detail["calibration_ns"] = cal.samples
	out.Detail["windows"] = detail
	out.Detail["clients"] = cfg.clients
	out.Detail["open_rate_per_s"] = wl.rate
	return out, nil
}

// windowHealth says whether an open-loop window can be trusted.
type windowHealth struct {
	Due           int     `json:"due"`
	Completed     int     `json:"completed"`
	Dropped       int     `json:"dropped"`
	LateP99Ms     float64 `json:"late_ms_p99"`
	LoadgenShare  float64 `json:"loadgen_cpu_share"`
	Saturated     bool    `json:"saturated"`
	GeneratorBusy bool    `json:"generator_busy"`
}

func openHealth(w *window, self time.Duration) windowHealth {
	h := windowHealth{Due: len(w.samples)}
	var late []float64
	for i := range w.samples {
		s := &w.samples[i]
		if s.dropped {
			h.Dropped++
			continue
		}
		late = append(late, ms(s.sent-s.due))
		if s.err == nil {
			h.Completed++
		}
	}
	sort.Float64s(late)
	if len(late) > 0 {
		h.LateP99Ms = quantile(late, 0.99)
	}
	h.LoadgenShare = float64(self) / (float64(w.length) * float64(runtime.NumCPU()))
	h.Saturated = h.LateP99Ms > ms(lateLimit) || float64(h.Completed) < minCompleted*float64(h.Due)
	h.GeneratorBusy = h.LoadgenShare > loadgenCPULimit
	return h
}

// completedWithin counts the correct replies that arrived inside the window.
func completedWithin(w *window) int {
	n := 0
	for i := range w.samples {
		if s := &w.samples[i]; s.err == nil && s.done <= w.length {
			n++
		}
	}
	return n
}

// latencies returns the sorted latencies (ms, from due time) of the window's
// correct replies.
func latencies(w *window) []float64 {
	var out []float64
	for i := range w.samples {
		if s := &w.samples[i]; s.err == nil {
			out = append(out, ms(s.done-s.due))
		}
	}
	sort.Float64s(out)
	return out
}

func firstError(w *window) error {
	for i := range w.samples {
		if err := w.samples[i].err; err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
