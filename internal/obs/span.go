package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span.go is the one trace model of the repository. The coarse pipeline
// stages of a request are spans of a tree — start/end timestamps, parent
// edges, attributes and links to other traces — so "where did this request's
// latency go?" has an exact answer. The thousands of identical hot-path
// events inside one stage (tia_probe, queue_pop) are not spans: a caller
// that wants them switches aggregates on (EnableAggregates) and they fold
// into one count/total/max row per name on the trace.
//
// The design follows W3C Trace Context for propagation (Traceparent /
// ParseTraceparent) and exports finished traces in the Chrome trace_event
// format (WriteChromeTrace), so a flamegraph is one chrome://tracing or
// Perfetto load away. Everything is stdlib-only like the rest of the
// package, and a nil *Span is the disabled state: every method no-ops on a
// nil receiver, so instrumented paths pay a pointer test when tracing is
// off.

// TraceID identifies one trace: a request's whole span tree. The zero value
// is invalid, as in W3C Trace Context.
type TraceID [16]byte

// SpanID identifies one span within a trace. The zero value is invalid.
type SpanID [8]byte

// String returns the lowercase-hex form used on the wire.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String returns the lowercase-hex form used on the wire.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// MarshalJSON renders the ID as its hex string (byte arrays would otherwise
// marshal as number arrays).
func (id TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// UnmarshalJSON parses the hex string form.
func (id *TraceID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s) != 32 {
		return fmt.Errorf("obs: trace id %q: want 32 hex chars", s)
	}
	_, err := hex.Decode(id[:], []byte(s))
	return err
}

// MarshalJSON renders the ID as its hex string.
func (id SpanID) MarshalJSON() ([]byte, error) { return json.Marshal(id.String()) }

// UnmarshalJSON parses the hex string form.
func (id *SpanID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s) != 16 {
		return fmt.Errorf("obs: span id %q: want 16 hex chars", s)
	}
	_, err := hex.Decode(id[:], []byte(s))
	return err
}

// SpanContext is the propagatable identity of a span: what travels in a
// traceparent header, what a link points at.
type SpanContext struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id"`
	Sampled bool    `json:"sampled"`
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00): "00-<trace-id>-<span-id>-<flags>".
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. Unknown versions
// are accepted as long as the version-00 prefix fields parse (per spec);
// all-zero trace or span IDs are rejected.
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return sc, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	if len(parts[0]) != 2 || parts[0] == "ff" {
		return sc, fmt.Errorf("obs: traceparent version %q invalid", parts[0])
	}
	if !decodeHex(sc.TraceID[:], parts[1]) {
		return sc, fmt.Errorf("obs: traceparent trace-id %q invalid", parts[1])
	}
	if !decodeHex(sc.SpanID[:], parts[2]) {
		return sc, fmt.Errorf("obs: traceparent parent-id %q invalid", parts[2])
	}
	var flags [1]byte
	if !decodeHex(flags[:], parts[3]) {
		return sc, fmt.Errorf("obs: traceparent flags %q invalid", parts[3])
	}
	sc.Sampled = flags[0]&1 == 1
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return sc, fmt.Errorf("obs: traceparent %q has zero ids", s)
	}
	return sc, nil
}

// decodeHex decodes the hex field s into dst, which it must fill exactly;
// the length is checked first, since hex.Decode writes past a short dst.
func decodeHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// Attr is one key/value annotation on a span. Values are kept as given and
// rendered only when a trace is read (JSON, or %v in WriteTree and the slow
// log), so a typed value costs its request no formatting.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Attribute keys a TraceRing reads: a span carrying AttrQuery makes its
// trace a query trace, and the slow-query log quotes all three.
const (
	AttrQuery   = "query"
	AttrResults = "results"
	AttrError   = "error"
)

// SpanStats aggregates the occurrences of one name (Span.Observe).
type SpanStats struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// SpanStat is one named aggregate row.
type SpanStat struct {
	Name string `json:"name"`
	SpanStats
}

// SpanRecord is the immutable snapshot of one finished span.
type SpanRecord struct {
	Name   string        `json:"name"`
	ID     SpanID        `json:"span_id"`
	Parent SpanID        `json:"parent_id,omitempty"` // zero for the root
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Links  []SpanContext `json:"links,omitempty"`
}

// Duration returns End − Start.
func (r *SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// FinishedTrace is a completed span tree as delivered to a TraceSink:
// Spans[0] is the root, the rest follow in start order.
type FinishedTrace struct {
	TraceID TraceID      `json:"trace_id"`
	Spans   []SpanRecord `json:"spans"`
	// Aggregates are the rows observed while aggregates were on, in
	// first-observed order.
	Aggregates []SpanStat `json:"aggregates,omitempty"`
}

// Root returns the root span record (nil on an empty trace).
func (t *FinishedTrace) Root() *SpanRecord {
	if t == nil || len(t.Spans) == 0 {
		return nil
	}
	return &t.Spans[0]
}

// Find returns the first span with the given name, or nil.
func (t *FinishedTrace) Find(name string) *SpanRecord {
	if t == nil {
		return nil
	}
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// Attr returns the first attribute named key, and whether there is one.
func (r *SpanRecord) Attr(key string) (any, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Children returns the spans whose parent is id, in start order.
func (t *FinishedTrace) Children(id SpanID) []SpanRecord {
	if t == nil {
		return nil
	}
	var out []SpanRecord
	for _, s := range t.Spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// SelfTime returns a span's own duration minus the durations of its direct
// children — the time the stage spent in its own code. Summed over a
// well-nested tree, self times telescope back to the root duration, which is
// how traces are reconciled against the independently measured request
// latency.
func (t *FinishedTrace) SelfTime(id SpanID) time.Duration {
	var span *SpanRecord
	for i := range t.Spans {
		if t.Spans[i].ID == id {
			span = &t.Spans[i]
			break
		}
	}
	if span == nil {
		return 0
	}
	d := span.Duration()
	for _, c := range t.Children(id) {
		d -= c.Duration()
	}
	return d
}

// TraceSink receives finished traces. Implementations must be safe for
// concurrent use; delivery happens on whatever goroutine finishes the root
// span, so sinks should return quickly.
type TraceSink interface {
	TraceFinished(t *FinishedTrace)
}

// spanTrace is the mutable in-flight trace shared by its spans.
type spanTrace struct {
	id   TraceID
	sink TraceSink
	agg  *spanAggs // nil: aggregates off

	mu    sync.Mutex
	spans []*Span
}

// Span is one in-flight timed operation in a trace. Spans are created with
// StartTrace (roots) and StartChild, annotated with SetAttr/AddLink, and
// closed with End; finishing the root delivers the whole tree to the
// trace's sink. All methods are safe for concurrent use and no-ops on a nil
// receiver.
type Span struct {
	t      *spanTrace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	end   time.Time // zero while the span is open
	attrs []Attr
	links []SpanContext
}

// spanAggs is the aggregate table of a trace: a handful of names observed
// thousands of times, so rows are found by a linear scan.
type spanAggs struct {
	mu   sync.Mutex
	rows []SpanStat
}

// ID generation: a process-seeded splitmix64 stream. Not cryptographically
// random — trace IDs here are correlation handles, not secrets — but unique
// within and across processes with overwhelming probability.
var (
	idSeed    = uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15 ^ 0xD1B54A32D192ED03
	idCounter atomic.Uint64
)

func nextID() uint64 {
	x := idSeed + idCounter.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 { // the all-zero ID is invalid on the wire
		x = 1
	}
	return x
}

func newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], nextID())
	return id
}

func newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], nextID())
	binary.BigEndian.PutUint64(id[8:], nextID())
	return id
}

// StartTrace begins a new trace rooted at a span called name. When parent is
// valid (e.g. parsed from an incoming traceparent header) the trace joins
// the caller's trace ID and the root span's parent is the remote span;
// otherwise a fresh trace ID is minted. The finished tree is delivered to
// sink when the root span is Finished. A nil sink records nothing and
// returns a nil *Span, so callers can gate tracing entirely by the sink.
func StartTrace(name string, parent SpanContext, sink TraceSink) *Span {
	if sink == nil {
		return nil
	}
	tid := parent.TraceID
	if tid.IsZero() {
		tid = newTraceID()
	}
	t := &spanTrace{id: tid, sink: sink}
	root := &Span{
		t:      t,
		id:     newSpanID(),
		parent: parent.SpanID,
		name:   name,
		start:  time.Now(),
	}
	t.spans = append(t.spans, root)
	return root
}

// StartChild begins a child span of s.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		t:      s.t,
		id:     newSpanID(),
		parent: s.id,
		name:   name,
		start:  time.Now(),
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, c)
	s.t.mu.Unlock()
	return c
}

// Context returns the span's propagatable identity.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.t.id, SpanID: s.id, Sampled: true}
}

// SetAttr annotates the span. Later values for the same key are appended,
// not replaced (attribute lists are short).
func (s *Span) SetAttr(key string, value any) {
	s.SetAttrs(Attr{Key: key, Value: value})
}

// SetAttrs is SetAttr for several annotations under one lock.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// AddLink records a causal link to a span in another trace — the shape
// group-commit batches (and, later, scatter-gather shards) use to connect
// one shared operation to the requests riding it.
func (s *Span) AddLink(sc SpanContext) {
	if s == nil || !sc.Valid() {
		return
	}
	s.mu.Lock()
	s.links = append(s.links, sc)
	s.mu.Unlock()
}

// EnableAggregates switches per-name aggregates on for s's trace: Observe
// and Timed on any of its spans fold into one count/total/max row per name.
// Call it before the trace is shared. Off by default, so an ordinary request
// never reads the clock per hot-path event.
func (s *Span) EnableAggregates() {
	if s != nil && s.t.agg == nil {
		s.t.agg = &spanAggs{}
	}
}

// Aggregating returns s when aggregates are on for it and nil otherwise:
// hot paths keep the result and guard each timed site with one nil test.
func (s *Span) Aggregating() *Span {
	if s == nil || s.t.agg == nil {
		return nil
	}
	return s
}

// Observe adds one occurrence of name lasting d to the aggregates; a no-op
// while they are off.
func (s *Span) Observe(name string, d time.Duration) {
	if s.Aggregating() == nil {
		return
	}
	a := s.t.agg
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.rows {
		if r := &a.rows[i]; r.Name == name {
			r.Count++
			r.Total += d
			r.Max = max(r.Max, d)
			return
		}
	}
	a.rows = append(a.rows, SpanStat{Name: name, SpanStats: SpanStats{Count: 1, Total: d, Max: d}})
}

// noopEnd avoids allocating a closure per site while aggregates are off.
var noopEnd = func() {}

// Timed starts timing one occurrence of name and returns the function that
// ends it: defer sp.Timed("expand")().
func (s *Span) Timed(name string) func() {
	if s.Aggregating() == nil {
		return noopEnd
	}
	begin := time.Now()
	return func() { s.Observe(name, time.Since(begin)) }
}

// Aggregates returns the rows observed so far, in first-observed order (nil
// while aggregates are off).
func (s *Span) Aggregates() []SpanStat {
	if s.Aggregating() == nil {
		return nil
	}
	s.t.agg.mu.Lock()
	defer s.t.agg.mu.Unlock()
	return append([]SpanStat(nil), s.t.agg.rows...)
}

// End closes the span. The first call wins; later calls (and End after
// Finish) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Finish ends the span and, when s is the trace's root, snapshots the whole
// tree and delivers it to the sink. Open descendant spans are closed at the
// root's end time, so a handler that forgets an End still produces a
// well-formed tree.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.End()
	t := s.t
	t.mu.Lock()
	if len(t.spans) == 0 || t.spans[0] != s {
		t.mu.Unlock()
		return
	}
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()

	ft := &FinishedTrace{TraceID: t.id, Spans: make([]SpanRecord, 0, len(spans)), Aggregates: s.Aggregates()}
	rootEnd := func() time.Time {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.end
	}()
	for _, sp := range spans {
		sp.mu.Lock()
		rec := SpanRecord{
			Name:   sp.name,
			ID:     sp.id,
			Parent: sp.parent,
			Start:  sp.start,
			End:    sp.end,
			Attrs:  sp.attrs,
			Links:  sp.links,
		}
		sp.mu.Unlock()
		if rec.End.IsZero() {
			rec.End = rootEnd
		}
		if sp == s {
			rec.Parent = SpanID{} // the remote parent travels via TraceID only
		}
		ft.Spans = append(ft.Spans, rec)
	}
	t.sink.TraceFinished(ft)
}

// spanKey carries a *Span through a context.Context.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil. The nil return
// composes with the nil-receiver no-ops: code can unconditionally call
// SpanFromContext(ctx).StartChild("stage") and pay only pointer tests when
// tracing is off.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// chromeEvent is one Chrome trace_event record. Complete events ("ph":"X")
// carry their duration inline, which is exactly a span.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`  // microseconds
	Dur  int64          `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders traces in the Chrome trace_event JSON-array
// format, one complete event per line: loadable directly in chrome://tracing
// or Perfetto (both tolerate the unterminated array, so the same writer
// serves streamed files). Each trace gets its own tid so concurrent requests
// stack as separate tracks; span links and attributes travel in args.
func WriteChromeTrace(w io.Writer, traces []*FinishedTrace) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for tid, t := range traces {
		if err := writeChromeSpans(w, t, tid+1); err != nil {
			return err
		}
	}
	return nil
}

func writeChromeSpans(w io.Writer, t *FinishedTrace, tid int) error {
	for i := range t.Spans {
		s := &t.Spans[i]
		args := map[string]any{
			"trace_id": t.TraceID.String(),
			"span_id":  s.ID.String(),
		}
		if !s.Parent.IsZero() {
			args["parent_id"] = s.Parent.String()
		}
		for _, a := range s.Attrs {
			args["attr."+a.Key] = a.Value
		}
		if len(s.Links) > 0 {
			links := make([]string, len(s.Links))
			for j, l := range s.Links {
				links[j] = l.TraceID.String() + ":" + l.SpanID.String()
			}
			args["links"] = links
		}
		if i == 0 && len(t.Aggregates) > 0 {
			args["aggregates"] = t.Aggregates
		}
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "tartree",
			Ph:   "X",
			Ts:   s.Start.UnixMicro(),
			Dur:  s.Duration().Microseconds(),
			Pid:  1,
			Tid:  tid,
		}
		ev.Args = args
		if err := writeJSONLine(w, ev); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONLine emits v as one trace_event line: the object, a trailing
// comma, a newline. Chrome's JSON-array reader accepts the dangling comma
// and missing "]", which keeps the format appendable.
func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, ',', '\n')
	_, err = w.Write(data)
	return err
}

// FileTraceSink appends finished traces to a writer as Chrome trace_event
// lines — the -trace-out sink. Safe for concurrent use.
type FileTraceSink struct {
	mu      sync.Mutex
	w       io.Writer
	started bool
	tid     int
	err     error // sticky write failure
}

// NewFileTraceSink wraps w; the caller keeps ownership (and closes it).
func NewFileTraceSink(w io.Writer) *FileTraceSink {
	return &FileTraceSink{w: w}
}

// TraceFinished implements TraceSink.
func (s *FileTraceSink) TraceFinished(t *FinishedTrace) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if !s.started {
		if _, s.err = io.WriteString(s.w, "[\n"); s.err != nil {
			return
		}
		s.started = true
	}
	s.tid++
	s.err = writeChromeSpans(s.w, t, s.tid)
}

// Err returns the first write failure, if any.
func (s *FileTraceSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// WriteTree renders the trace as an indented, duration-annotated span tree:
//
//	query                    412µs
//	├─ admission_wait          3µs
//	├─ cache_probe             9µs
//	└─ search                380µs
//
// Orphan spans (parent not in the trace, e.g. joined from a remote parent)
// print at the top level after the root.
func (t *FinishedTrace) WriteTree(w io.Writer) {
	if t == nil || len(t.Spans) == 0 {
		fmt.Fprintln(w, "<empty trace>")
		return
	}
	byParent := make(map[SpanID][]SpanRecord)
	ids := make(map[SpanID]bool, len(t.Spans))
	for _, s := range t.Spans {
		ids[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range t.Spans {
		if !s.Parent.IsZero() && ids[s.Parent] {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	for p := range byParent {
		sort.SliceStable(byParent[p], func(i, j int) bool {
			return byParent[p][i].Start.Before(byParent[p][j].Start)
		})
	}
	fmt.Fprintf(w, "trace %s\n", t.TraceID)
	for _, a := range t.Aggregates {
		fmt.Fprintf(w, "· %-14s %6d× total %-10v max %v\n",
			a.Name, a.Count, a.Total.Round(time.Microsecond), a.Max.Round(time.Microsecond))
	}
	var walk func(s SpanRecord, prefix string, last bool)
	walk = func(s SpanRecord, prefix string, last bool) {
		branch, childPrefix := "├─ ", prefix+"│  "
		if last {
			branch, childPrefix = "└─ ", prefix+"   "
		}
		var attrs string
		if len(s.Attrs) > 0 {
			parts := make([]string, 0, len(s.Attrs))
			for _, a := range s.Attrs {
				parts = append(parts, fmt.Sprintf("%s=%v", a.Key, a.Value))
			}
			attrs = "  {" + strings.Join(parts, ", ") + "}"
		}
		if len(s.Links) > 0 {
			attrs += fmt.Sprintf("  links=%d", len(s.Links))
		}
		fmt.Fprintf(w, "%s%s%-24s %10v%s\n", prefix, branch,
			s.Name, s.Duration().Round(time.Microsecond), attrs)
		kids := byParent[s.ID]
		for i, c := range kids {
			walk(c, childPrefix, i == len(kids)-1)
		}
	}
	for i, r := range roots {
		walk(r, "", i == len(roots)-1)
	}
}
