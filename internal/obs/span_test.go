package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sink := NewTraceRing(4)
	sp := StartTrace("root", SpanContext{}, sink)
	sc := sp.Context()
	if !sc.Valid() {
		t.Fatalf("root context invalid: %+v", sc)
	}
	hdr := sc.Traceparent()
	got, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
	sp.Finish()
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff forbidden
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-XYZ92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q): want error", bad)
		}
	}
	// Sampled flag parses.
	sc, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Sampled {
		t.Error("flags 01: want sampled")
	}
	sc, err = ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sampled {
		t.Error("flags 00: want unsampled")
	}
}

// FuzzParseTraceparent: every request may carry a traceparent header, so
// the parser must refuse any string without panicking, and a value it
// accepts must survive Traceparent: rendering the parsed context and
// parsing that again gives the same context.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		" 01-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-03-extra ",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", s, sc)
		}
		hdr := sc.Traceparent()
		back, err := ParseTraceparent(hdr)
		if err != nil || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v renders %q, which parses to %+v, %v", s, sc, hdr, back, err)
		}
	})
}

func TestSpanTreeStructure(t *testing.T) {
	sink := NewTraceRing(4)
	root := StartTrace("request", SpanContext{}, sink)
	a := root.StartChild("validate")
	a.SetAttr("checkins", 3)
	time.Sleep(time.Millisecond)
	a.End()
	b := root.StartChild("append")
	fsync := b.StartChild("fsync_batch")
	fsync.AddLink(SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true})
	fsync.End()
	b.End()
	root.Finish()

	if sink.Len() != 1 {
		t.Fatalf("sink holds %d traces, want 1", sink.Len())
	}
	ft := sink.Traces()[0]
	if got := len(ft.Spans); got != 4 {
		t.Fatalf("trace has %d spans, want 4", got)
	}
	if ft.Root().Name != "request" {
		t.Fatalf("root span %q, want request", ft.Root().Name)
	}
	va := ft.Find("validate")
	if va == nil || va.Parent != ft.Root().ID {
		t.Fatalf("validate span missing or mis-parented: %+v", va)
	}
	if len(va.Attrs) != 1 || va.Attrs[0].Key != "checkins" {
		t.Fatalf("validate attrs: %+v", va.Attrs)
	}
	if va.Duration() <= 0 {
		t.Fatalf("validate duration %v, want > 0", va.Duration())
	}
	fb := ft.Find("fsync_batch")
	if fb == nil || fb.Parent != ft.Find("append").ID {
		t.Fatalf("fsync_batch mis-parented: %+v", fb)
	}
	if len(fb.Links) != 1 {
		t.Fatalf("fsync_batch links: %+v", fb.Links)
	}
	if kids := ft.Children(ft.Root().ID); len(kids) != 2 {
		t.Fatalf("root has %d children, want 2", len(kids))
	}
}

func TestSpanJoinsRemoteParent(t *testing.T) {
	remote := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	sink := NewTraceRing(1)
	root := StartTrace("ingest", remote, sink)
	if root.Context().TraceID != remote.TraceID {
		t.Fatalf("trace id %v, want joined %v", root.Context().TraceID, remote.TraceID)
	}
	root.Finish()
	if got := sink.Traces()[0].TraceID; got != remote.TraceID {
		t.Fatalf("finished trace id %v, want %v", got, remote.TraceID)
	}
}

func TestNilSpanIsNoop(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.AddLink(SpanContext{})
	sp.End()
	sp.Finish()
	sp.SetAttrs(Attr{Key: "k", Value: 1})
	sp.EnableAggregates()
	sp.Observe("x", time.Second)
	sp.Timed("y")()
	if sp.Aggregating() != nil || sp.Aggregates() != nil {
		t.Fatal("nil span aggregates")
	}
	if c := sp.StartChild("x"); c != nil {
		t.Fatalf("nil span child: %v", c)
	}
	if sp.Context().Valid() {
		t.Fatal("nil span context should be invalid")
	}
	// Nil sink disables the whole trace.
	if st := StartTrace("x", SpanContext{}, nil); st != nil {
		t.Fatalf("StartTrace with nil sink: %v", st)
	}
	// Nil context carries no span.
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no span")
	}
}

func TestContextCarriesSpan(t *testing.T) {
	sink := NewTraceRing(1)
	sp := StartTrace("root", SpanContext{}, sink)
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext: got %v want %v", got, sp)
	}
	sp.Finish()
}

func TestFinishClosesOpenChildren(t *testing.T) {
	sink := NewTraceRing(1)
	root := StartTrace("root", SpanContext{}, sink)
	root.StartChild("leaked") // never ended
	root.Finish()
	ft := sink.Traces()[0]
	leaked := ft.Find("leaked")
	if leaked.End.IsZero() {
		t.Fatal("leaked span not closed by Finish")
	}
	if leaked.End.After(ft.Root().End) {
		t.Fatal("leaked span closed after root end")
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	sink := NewTraceRing(1)
	root := StartTrace("root", SpanContext{}, sink)
	for i := 0; i < 3; i++ {
		c := root.StartChild("stage")
		time.Sleep(time.Millisecond)
		c.End()
	}
	root.Finish()
	ft := sink.Traces()[0]
	var sum time.Duration
	for _, s := range ft.Spans {
		sum += ft.SelfTime(s.ID)
	}
	rootDur := ft.Root().Duration()
	diff := sum - rootDur
	if diff < 0 {
		diff = -diff
	}
	if diff > rootDur/100 {
		t.Fatalf("self times sum %v vs root %v: diff %v", sum, rootDur, diff)
	}
}

func TestTraceRingFinishedAndFind(t *testing.T) {
	sink := NewTraceRing(2)
	for i := 0; i < 3; i++ {
		sp := StartTrace("t", SpanContext{}, sink)
		sp.Finish()
	}
	if sink.Len() != 2 {
		t.Fatalf("ring len %d, want 2", sink.Len())
	}
	if sink.Finished() != 3 {
		t.Fatalf("finished %d, want 3", sink.Finished())
	}
	// The two survivors are the 2nd and 3rd traces.
	traces := sink.Traces()
	if len(traces) != 2 || traces[0].TraceID == traces[1].TraceID {
		t.Fatalf("traces: %v", traces)
	}
	if sink.Find(traces[1].TraceID) != traces[1] {
		t.Fatal("Find by id failed")
	}
}

func TestChromeExport(t *testing.T) {
	sink := NewTraceRing(2)
	root := StartTrace("query", SpanContext{}, sink)
	c := root.StartChild("search")
	c.AddLink(SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true})
	c.End()
	root.Finish()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sink.Traces()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") {
		t.Fatalf("chrome export must open a JSON array, got %q", out[:2])
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")[1:]
	if len(lines) != 2 {
		t.Fatalf("got %d event lines, want 2", len(lines))
	}
	for _, line := range lines {
		line = strings.TrimSuffix(line, ",")
		var ev struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want X", ev.Ph)
		}
		if ev.Args["trace_id"] == "" {
			t.Fatal("event missing trace_id arg")
		}
	}
	if !strings.Contains(out, `"links"`) {
		t.Fatal("link missing from chrome export")
	}
}

func TestFileTraceSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewFileTraceSink(&buf)
	for i := 0; i < 2; i++ {
		sp := StartTrace("t", SpanContext{}, sink)
		sp.Finish()
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") {
		t.Fatal("file sink must open a JSON array once")
	}
	if strings.Count(out, "[\n") != 1 {
		t.Fatal("array opener written more than once")
	}
	if strings.Count(out, `"ph":"X"`) != 2 {
		t.Fatalf("want 2 events, got: %s", out)
	}
}

func TestSpanIDMarshalJSON(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var got SpanContext
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("json round trip: got %+v want %+v", got, sc)
	}
}

func TestConcurrentSpans(t *testing.T) {
	sink := NewTraceRing(1)
	root := StartTrace("root", SpanContext{}, sink)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.StartChild("worker")
			c.SetAttr("n", 1)
			c.End()
		}()
	}
	wg.Wait()
	root.Finish()
	if got := len(sink.Traces()[0].Spans); got != 9 {
		t.Fatalf("got %d spans, want 9", got)
	}
}

func TestWriteTree(t *testing.T) {
	sink := NewTraceRing(1)
	root := StartTrace("query", SpanContext{}, sink)
	c := root.StartChild("search")
	c.SetAttr("k", 10)
	c.End()
	root.Finish()
	var buf bytes.Buffer
	sink.Traces()[0].WriteTree(&buf)
	out := buf.String()
	for _, want := range []string{"trace ", "query", "└─ search", "k=10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestIDsUnique(t *testing.T) {
	seen := make(map[SpanID]bool)
	for i := 0; i < 10000; i++ {
		id := newSpanID()
		if id.IsZero() || seen[id] {
			t.Fatalf("duplicate or zero span id at %d", i)
		}
		seen[id] = true
	}
}

// The aggregate half of the model: what the phase timers of the retired
// obs.Trace pinned, now as cases of a span with aggregates on.

func TestAggregatesOffByDefault(t *testing.T) {
	root := StartTrace("root", SpanContext{}, NewTraceRing(1))
	root.Observe("x", time.Second)
	root.Timed("y")()
	if root.Aggregating() != nil {
		t.Fatal("fresh span reports aggregating")
	}
	if root.Aggregates() != nil {
		t.Fatalf("aggregates off, got rows %v", root.Aggregates())
	}
	root.EnableAggregates()
	if root.Aggregating() != root {
		t.Fatal("Aggregating must return the span once aggregates are on")
	}
}

func TestAggregatesFoldByName(t *testing.T) {
	sink := NewTraceRing(1)
	root := StartTrace("request", SpanContext{}, sink)
	ex := root.StartChild("execute")
	ex.EnableAggregates()
	search := ex.StartChild("search") // any span of the trace folds into the one table
	search.Observe("probe", 2*time.Millisecond)
	search.Observe("probe", 4*time.Millisecond)
	ex.Observe("expand", time.Millisecond)
	rows := ex.Aggregates()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Name != "probe" || rows[0].Count != 2 ||
		rows[0].Total != 6*time.Millisecond || rows[0].Max != 4*time.Millisecond {
		t.Errorf("probe row = %+v", rows[0])
	}
	if rows[1].Name != "expand" || rows[1].Count != 1 {
		t.Errorf("expand row = %+v", rows[1])
	}
	search.End()
	ex.End()
	root.Finish()
	// The finished trace reports the rows and renders them in the tree.
	ft := sink.Traces()[0]
	if got := ft.Aggregates; len(got) != 2 || got[0].Name != "probe" {
		t.Fatalf("finished trace aggregates = %+v", got)
	}
	var buf bytes.Buffer
	ft.WriteTree(&buf)
	if !strings.Contains(buf.String(), "probe") {
		t.Errorf("WriteTree missing aggregate row:\n%s", buf.String())
	}
}

func TestTimedMeasures(t *testing.T) {
	root := StartTrace("root", SpanContext{}, NewTraceRing(1))
	root.EnableAggregates()
	end := root.Timed("s")
	time.Sleep(2 * time.Millisecond)
	end()
	rows := root.Aggregates()
	if len(rows) != 1 || rows[0].Total <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestAggregatesConcurrent(t *testing.T) {
	root := StartTrace("root", SpanContext{}, NewTraceRing(1))
	root.EnableAggregates()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				root.Observe("hot", time.Microsecond)
				if i%10 == 0 {
					root.Timed("timed")()
				}
			}
		}()
	}
	// Readers race with the writers: snapshots must stay consistent under
	// -race.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, s := range root.Aggregates() {
					if s.Count <= 0 || s.Total < 0 || s.Max > s.Total {
						t.Error("inconsistent aggregate snapshot")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	rows := root.Aggregates()
	if len(rows) != 2 || rows[0].Name != "hot" || rows[1].Name != "timed" {
		t.Fatalf("rows = %+v, want hot then timed", rows)
	}
	if rows[0].Count != 4000 || rows[0].Total != 4000*time.Microsecond || rows[0].Max != time.Microsecond {
		t.Fatalf("hot row = %+v", rows[0])
	}
	if rows[1].Count != 400 {
		t.Fatalf("timed count = %d, want 400", rows[1].Count)
	}
}

// The ring half: what the retired TraceRing of query records pinned, now
// over finished traces.

// finished builds a one-span trace lasting d. With a non-empty query the
// root carries the attributes that make it a query trace.
func finished(d time.Duration, query string, attrs ...Attr) *FinishedTrace {
	start := time.Unix(1700000000, 0)
	root := SpanRecord{Name: "GET /v1/query", ID: newSpanID(), Start: start, End: start.Add(d)}
	if query != "" {
		root.Attrs = append([]Attr{{Key: AttrQuery, Value: query}}, attrs...)
	}
	return &FinishedTrace{TraceID: newTraceID(), Spans: []SpanRecord{root}}
}

func queries(ts []*FinishedTrace) []string {
	var out []string
	for _, t := range ts {
		q, _ := t.Root().Attr(AttrQuery)
		out = append(out, fmt.Sprint(q))
	}
	return out
}

func TestNilTraceRingIsNoop(t *testing.T) {
	var r *TraceRing
	if r.Cap() != 0 || r.Len() != 0 || r.Finished() != 0 {
		t.Fatal("nil ring reports capacity")
	}
	r.SetSlowLog(slog.Default(), time.Second) // must not panic
	r.TraceFinished(finished(time.Second, "q"))
	if r.Slowest() != nil || r.Traces() != nil {
		t.Fatal("nil ring has traces")
	}
	if r.Find(newTraceID()) != nil {
		t.Fatal("nil ring found a trace")
	}
}

// TestTraceRingEvictionOrder fills the ring past capacity: the recent view
// keeps exactly the newest traces, newest first.
func TestTraceRingEvictionOrder(t *testing.T) {
	r := NewTraceRing(3)
	if r.Cap() != 3 {
		t.Fatalf("cap = %d", r.Cap())
	}
	for i := 1; i <= 5; i++ {
		r.TraceFinished(finished(time.Duration(i)*time.Millisecond, fmt.Sprintf("q%d", i)))
	}
	if r.Len() != 3 || r.Finished() != 5 {
		t.Fatalf("len = %d finished = %d, want 3 and 5", r.Len(), r.Finished())
	}
	if got, want := queries(r.Traces()), []string{"q5", "q4", "q3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recent = %v, want %v", got, want)
	}
}

// TestTraceRingSlowest checks the slowest view ranks by root duration,
// keeps ties in arrival order, survives eviction from the recent view, and
// admits query traces only.
func TestTraceRingSlowest(t *testing.T) {
	r := NewTraceRing(3)
	// The slowest query arrives first and is then pushed out of the recent
	// view by faster ones; a checkpoint longer than all of them never ranks.
	first := finished(90*time.Millisecond, "q0")
	r.TraceFinished(first)
	r.TraceFinished(finished(time.Second, ""))
	for i, d := range []time.Duration{10, 40, 20, 40, 30} {
		r.TraceFinished(finished(d*time.Millisecond, fmt.Sprintf("q%d", i+1)))
	}
	slow := r.Slowest()
	if got, want := queries(slow), []string{"q0", "q2", "q4"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("slowest = %v, want %v (descending, first of a tie first)", got, want)
	}
	if slow[0] != first {
		t.Error("slowest[0] is not the trace evicted from recent")
	}
	for _, ft := range r.Traces() {
		if ft == first {
			t.Error("first trace still in recent: the test no longer shows independence of age")
		}
	}
	if r.Find(first.TraceID) != first {
		t.Error("Find misses a trace kept only in the slowest view")
	}
	// It must be a copy: mutating the result leaves the ring intact.
	slow[0] = nil
	if r.Slowest()[0] != first {
		t.Error("Slowest returned an aliased slice")
	}
}

func TestTraceRingSlowLog(t *testing.T) {
	r := NewTraceRing(4)
	var buf bytes.Buffer
	r.SetSlowLog(slog.New(slog.NewTextHandler(&buf, nil)), 50*time.Millisecond)
	r.TraceFinished(finished(10*time.Millisecond, "fast"))
	r.TraceFinished(finished(time.Second, "")) // a slow checkpoint is not a slow query
	if buf.Len() != 0 {
		t.Errorf("fast query or non-query trace logged: %s", buf.String())
	}
	at := finished(50*time.Millisecond, "edge") // the threshold itself counts
	r.TraceFinished(at)
	if !strings.Contains(buf.String(), "query=edge") {
		t.Errorf("query at the threshold not logged: %s", buf.String())
	}
	buf.Reset()
	slow := finished(80*time.Millisecond, "slow", Attr{AttrResults, 3}, Attr{AttrError, "boom"})
	r.TraceFinished(slow)
	out := buf.String()
	for _, want := range []string{"slow query", "query=slow", "results=3", "error=boom", "elapsed=80ms", "trace_id=" + slow.TraceID.String()} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q: %s", want, out)
		}
	}
	// Disabling the log stops emission.
	r.SetSlowLog(nil, 0)
	buf.Reset()
	r.TraceFinished(finished(time.Second, "slow2"))
	if buf.Len() != 0 {
		t.Errorf("disabled slow log still wrote: %s", buf.String())
	}
}

// TestRingEntryJSON pins the wire shape of a /v1/traces entry.
func TestRingEntryJSON(t *testing.T) {
	ft := finished(1500*time.Microsecond, "knnta(x=1, y=2, k=3, a0=0.5, iq=[0,10))",
		Attr{AttrResults, 3},
		Attr{"node_accesses", int64(5)})
	ft.Aggregates = []SpanStat{{Name: "tia_probe", SpanStats: SpanStats{Count: 2, Total: 30, Max: 20}}}
	blob, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	for _, want := range []string{
		`"trace_id":"` + ft.TraceID.String() + `"`,
		`"spans":[{"name":"GET /v1/query","span_id":"` + ft.Spans[0].ID.String() + `"`,
		`"start":"`, `"end":"`,
		`{"key":"query","value":"knnta(x=1, y=2, k=3, a0=0.5, iq=[0,10))"}`,
		`{"key":"results","value":3}`,
		`{"key":"node_accesses","value":5}`,
		`"aggregates":[{"name":"tia_probe","count":2,"total_ns":30,"max_ns":20}]`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON %s missing %s", s, want)
		}
	}
	if strings.Contains(s, `"links"`) {
		t.Errorf("JSON %s renders the empty optional field links", s)
	}
	bare, err := json.Marshal(finished(time.Millisecond, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"attrs", "aggregates"} {
		if strings.Contains(string(bare), `"`+absent+`"`) {
			t.Errorf("bare trace %s renders %q", bare, absent)
		}
	}
	var back FinishedTrace
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != ft.TraceID || back.Root().Duration() != 1500*time.Microsecond {
		t.Fatalf("round trip lost identity or timing: %+v", back.Root())
	}
}

// TestTraceRingConcurrent hammers one ring from writers and readers — the
// acceptance check under -race.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(8)
	var buf bytes.Buffer
	var mu sync.Mutex
	r.SetSlowLog(slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil)), time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.TraceFinished(finished(time.Duration(i%5)*time.Millisecond, "q"))
				if i%50 == 0 {
					_ = r.Traces()
					_ = r.Slowest()
					_ = r.Len()
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 8 || r.Finished() != 800 {
		t.Fatalf("len = %d finished = %d, want 8 and 800", r.Len(), r.Finished())
	}
	slow := r.Slowest()
	if len(slow) != 8 {
		t.Fatalf("slowest has %d traces", len(slow))
	}
	for _, ft := range slow {
		if ft.Root().Duration() != 4*time.Millisecond {
			t.Fatalf("slowest holds a %v trace, want the 4ms ones", ft.Root().Duration())
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
