package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

func spanTestTree(t *testing.T, cache *aggcache.Cache) *Tree {
	t.Helper()
	return buildAccountingTreeOpts(t, Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		NodeSize:    256,
		Grouping:    TAR3D,
		EpochStart:  0,
		EpochLength: 100,
		TIA:         tia.NewBTreeFactory(256, 10), // the node_accesses attribute counts pages
		Cache:       cache,
	})
}

var spanTestQuery = Query{X: 20, Y: 20, Iq: tia.Interval{Start: 0, End: 600}, K: 3, Alpha0: 0.5}

// TestQuerySpanAnnotations checks what QueryCtx leaves on the span it was
// given: the query, result count, work total and explain summary as typed
// values that render when the trace is read, and the error of a failed
// query — the same on a search, a result-cache hit and a refused query, so
// all three are query traces.
func TestQuerySpanAnnotations(t *testing.T) {
	tr := spanTestTree(t, aggcache.New(1<<20))
	ring := obs.NewTraceRing(4)
	var stats QueryStats // of the last run
	run := func(ctx context.Context, q Query, ex *Explain) *obs.FinishedTrace {
		root := obs.StartTrace("test", obs.SpanContext{}, ring)
		_, stats, _ = tr.QueryCtx(ctx, q, &QueryOpts{Span: root, Explain: ex})
		root.Finish()
		return ring.Traces()[0]
	}

	ft := run(context.Background(), spanTestQuery, NewExplain())
	if ft.Find("search") == nil {
		t.Fatalf("no search span: %+v", ft.Spans)
	}
	root := ft.Root()
	if v, _ := root.Attr(obs.AttrQuery); v != queryAttr(spanTestQuery) {
		t.Errorf("query attribute = %#v, want the typed query, not a formatted string", v)
	}
	if v, _ := root.Attr(obs.AttrResults); v != 3 {
		t.Errorf("results attribute = %v, want 3", v)
	}
	if v, _ := root.Attr("node_accesses"); v != stats.NodeAccesses() || stats.TIAAccesses == 0 {
		t.Errorf("node_accesses attribute = %v, want the stats' %d with TIA page reads", v, stats.NodeAccesses())
	}
	if v, _ := root.Attr("explain"); v.(*obs.ExplainSummary).Pops == 0 {
		t.Errorf("explain attribute = %+v, want the summary of a search that popped", v)
	}
	if _, ok := root.Attr(obs.AttrError); ok {
		t.Error("successful query carries an error attribute")
	}
	blob, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`{"key":"query","value":"knnta(x=20, y=20, k=3, a0=0.5, iq=[0,600))"}`,
		`{"key":"node_accesses","value":`, `"actual_node_accesses"`,
	} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("rendered trace missing %s:\n%s", want, blob)
		}
	}

	// The same query twice more: the second sight stores it, the third is
	// a result-cache hit: no search span, same annotations.
	run(context.Background(), spanTestQuery, nil)
	hit := run(context.Background(), spanTestQuery, nil)
	if hit.Find("search") != nil {
		t.Fatal("result-cache hit ran a search")
	}
	if v, _ := hit.Root().Attr(obs.AttrQuery); v != queryAttr(spanTestQuery) {
		t.Errorf("result-cache hit lacks the query attribute: %+v", hit.Root().Attrs)
	}
	if _, ok := hit.Root().Attr("explain"); ok {
		t.Error("query without an explain recorder carries an explain attribute")
	}

	// A canceled search and a refused query report their errors.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr.opts.Cache.Invalidate()
	if v, _ := run(ctx, spanTestQuery, nil).Root().Attr(obs.AttrError); v == nil || !strings.Contains(v.(string), "canceled") {
		t.Errorf("canceled search error attribute = %v", v)
	}
	bad := spanTestQuery
	bad.K = 0
	if v, _ := run(context.Background(), bad, nil).Root().Attr(obs.AttrError); v == nil {
		t.Error("refused query carries no error attribute")
	}
}

// TestQueryTracingAllocs guards what tracing costs in objects. Without
// options a query allocates nothing for tracing: the count equals that of
// an empty QueryOpts. With a span and aggregates off, a query allocates no
// more than it did when the span tree and the record ring were two systems
// (40 objects on this tree without a cache and 16 on a result-cache hit,
// root span included).
func TestQueryTracingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	ring := obs.NewTraceRing(8)
	for _, tc := range []struct {
		name    string
		cache   *aggcache.Cache
		spanned float64
	}{
		{"search", nil, 40},
		{"result-cache hit", aggcache.New(1 << 20), 16},
	} {
		tr := spanTestTree(t, tc.cache)
		if _, _, err := tr.QueryCtx(ctx, spanTestQuery, nil); err != nil { // warm pages and cache
			t.Fatal(err)
		}
		bare := testing.AllocsPerRun(100, func() { tr.QueryCtx(ctx, spanTestQuery, nil) })
		empty := testing.AllocsPerRun(100, func() { tr.QueryCtx(ctx, spanTestQuery, &QueryOpts{}) })
		if bare != empty {
			t.Errorf("%s: nil opts allocate %v objects, empty opts %v", tc.name, bare, empty)
		}
		spanned := testing.AllocsPerRun(100, func() {
			root := obs.StartTrace("r", obs.SpanContext{}, ring)
			tr.QueryCtx(ctx, spanTestQuery, &QueryOpts{Span: root})
			root.Finish()
		})
		if spanned > tc.spanned {
			t.Errorf("%s: a spanned query allocates %v objects, the two systems took %v", tc.name, spanned, tc.spanned)
		}
		t.Logf("%s: bare %v, spanned %v", tc.name, bare, spanned)
	}
}

// BenchmarkQuery_Spanned is BenchmarkQuery_Bare with a span attached and
// aggregates off — what every tarserve request pays for the one trace
// model: the root and stage spans, the typed annotations, and the ring.
func BenchmarkQuery_Spanned(b *testing.B) {
	tr := buildAccountingTreeOpts(b, explainTreeOpts(TAR3D, tia.NewBTreeFactory(256, 10)))
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 10, Alpha0: 0.5}
	ring := obs.NewTraceRing(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := obs.StartTrace("bench", obs.SpanContext{}, ring)
		if _, _, err := tr.QueryCtx(context.Background(), q, &QueryOpts{Span: root}); err != nil {
			b.Fatal(err)
		}
		root.Finish()
	}
}
