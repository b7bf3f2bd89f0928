package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"tartree/internal/lbsn"
)

// smokeSetup builds tarserve once and a small world (GS at scale 0.06, 157
// indexed POIs) on which a whole run takes a few seconds.
func smokeSetup(t *testing.T) (*config, *world, *manifest) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{
		outDir:  t.TempDir(),
		spec:    lbsn.GS.Scaled(0.06),
		scale:   0.06,
		seed:    1,
		seconds: 1.2,
		warmup:  100 * time.Millisecond,
		clients: 2,
		log:     io.Discard,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	if cfg.bin, err = buildServer(ctx, root, cfg.outDir); err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(cfg.spec)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, w, man
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts the printed metrics are exactly the declared ones, with
// the declared units and finite values.
func checkNames(t *testing.T, got map[string]value, want []metricDef) {
	t.Helper()
	declared := make(map[string]string, len(want))
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("declared metric name %q does not fit the contract", m.Name)
		}
		declared[m.Name] = m.Unit
	}
	for name, v := range got {
		unit, ok := declared[name]
		if !ok {
			t.Errorf("printed metric %s is not declared in BENCHMARK.json", name)
			continue
		}
		if v.Unit != unit {
			t.Errorf("%s: printed unit %q, declared %q", name, v.Unit, unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: value %v is not finite", name, v.Value)
		}
	}
	for name := range declared {
		if _, ok := got[name]; !ok {
			t.Errorf("declared metric %s was not printed", name)
		}
	}
}

// TestSmoke runs every workload, timed and traced, against real tarserve
// processes at a small scale.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns tarserve fleets")
	}
	cfg, w, man := smokeSetup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var declared []string
	for _, wl := range man.Workloads {
		declared = append(declared, wl.Name)
	}
	var have []string
	for _, wl := range workloads {
		have = append(have, wl.name)
	}
	if strings.Join(declared, ",") != strings.Join(have, ",") {
		t.Fatalf("workloads: BENCHMARK.json declares %v, the harness runs %v", declared, have)
	}

	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			timed, err := measure(ctx, cfg, wl, w)
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, timed.Metrics, man.EndToEnd)
			for name, v := range timed.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted == 0 {
				t.Errorf("timed run: correct=%v, %d of %d failed", timed.Correct, timed.Failed, timed.Attempted)
			}

			traced, err := measureTraced(ctx, cfg, wl, w)
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, traced.Metrics, man.PerLayer)
			if !traced.Correct || traced.Failed != 0 || traced.Metrics["failed_share"].Value != 0 {
				t.Errorf("traced run: correct=%v, %d of %d failed", traced.Correct, traced.Failed, traced.Attempted)
			}
			if wl.name == "single-distinct" {
				checkWorkCounters(t, ctx, cfg, wl, w, traced.Metrics)
			}
		})
	}
}

// checkWorkCounters replays the counting pass in-process: the counters the
// server reported over HTTP must be the ones (*Tree).QueryCtx counts for the
// same queries in the same order on a cold cache.
func checkWorkCounters(t *testing.T, ctx context.Context, cfg *config, wl workload, w *world, got map[string]value) {
	t.Helper()
	rep, err := buildReplica(w)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(w, wl, cfg.seed, cfg.span())
	var nodes, leaves, scored, tiaReads float64
	for i := 0; i < countQueries; i++ {
		q, _ := s.query(i)
		_, st, err := rep.tree.QueryCtx(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes += float64(st.NodeAccesses())
		leaves += float64(st.LeafAccesses)
		scored += float64(st.Scored)
		tiaReads += float64(st.TIAAccesses)
	}
	for name, want := range map[string]float64{
		"core.node_accesses_per_query": nodes / countQueries,
		"core.leaf_accesses_per_query": leaves / countQueries,
		"core.scored_per_query":        scored / countQueries,
		"core.tia_accesses_per_query":  tiaReads / countQueries,
	} {
		if got[name].Value != want {
			t.Errorf("%s: server reported %v, in-process QueryCtx counts %v", name, got[name].Value, want)
		}
	}
}

// requests renders the first n requests of a stream as the bytes that go on
// the wire.
func requests(s *stream, n int) []string {
	out := make([]string, 0, n+len(s.batches))
	for i := 0; i < n; i++ {
		q, _ := s.query(i)
		out = append(out, queryValues(q).Encode())
	}
	for _, b := range s.batches {
		raw, _ := json.Marshal(b)
		out = append(out, string(raw))
	}
	for _, g := range s.gaps {
		out = append(out, time.Duration(g*float64(time.Second)).String())
	}
	return out
}

func TestSeedIsHonoured(t *testing.T) {
	w, err := newWorld(lbsn.GS.Scaled(0.06))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		a := requests(newStream(w, wl, 1, time.Second), 2000)
		b := requests(newStream(w, wl, 1, time.Second), 2000)
		c := requests(newStream(w, wl, 2, time.Second), 2000)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: one seed gave two different request streams", wl.name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", wl.name)
		}
		if !wl.hot {
			sorted := append([]string(nil), a[:2000]...)
			sort.Strings(sorted)
			for i := 1; i < len(sorted); i++ {
				if sorted[i] == sorted[i-1] {
					t.Errorf("%s: query %s repeats in a distinct stream", wl.name, sorted[i])
					break
				}
			}
		}
	}
}

// TestOracleRejectsWrongScore corrupts one expected score: a reply that was
// correct must then count as a failed operation.
func TestOracleRejectsWrongScore(t *testing.T) {
	w, err := newWorld(lbsn.GS.Scaled(0.06))
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(w, workloads[0], 1, time.Second)
	orc := newOracle(w, s)
	want, err := orc.expected(0)
	if err != nil {
		t.Fatal(err)
	}
	reply := func() *window {
		sm := sample{slot: 0}
		for _, r := range want[:queryK] {
			sm.hits = append(sm.hits, hit{id: r.POI.ID, score: r.Score})
		}
		return &window{samples: []sample{sm}}
	}
	good := reply()
	if err := orc.verify(good); err != nil || good.samples[0].err != nil {
		t.Fatalf("the scan's own answer was rejected: %v %v", err, good.samples[0].err)
	}
	swapped := reply()
	swapped.samples[0].hits[2].id = -1
	if err := orc.verify(swapped); err != nil || !errors.Is(swapped.samples[0].err, errWrongAnswer) {
		t.Errorf("a reply naming an unknown POI passed: %v", swapped.samples[0].err)
	}
	bad := reply()
	orc.memo[0][3].Score += 1e-6
	if err := orc.verify(bad); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(bad.samples[0].err, errWrongAnswer) {
		t.Errorf("a score off by 1e-6 passed: %v", bad.samples[0].err)
	}
	var out outcome
	cfg := &config{log: io.Discard}
	if err := out.judge(cfg, workloads[0], orc, []*window{bad}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != 1 || out.Attempted != 1 {
		t.Errorf("a wrong answer gave correct=%v, %d failed of %d", out.Correct, out.Failed, out.Attempted)
	}
}

func TestCompareNamesTheRegression(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(scale float64) *suiteDoc {
		d := &suiteDoc{Timed: map[string]*outcome{}}
		for _, wl := range man.Workloads {
			o := &outcome{}
			o.Correct, o.Attempted = true, 1
			o.Metrics = map[string]value{}
			for _, m := range man.EndToEnd {
				o.Metrics[m.Name] = value{100, m.Unit}
			}
			d.Timed[wl.Name] = o
		}
		slow := d.Timed["single-hot"].Metrics["query_p50_ms"]
		slow.Value *= scale
		d.Timed["single-hot"].Metrics["query_p50_ms"] = slow
		return d
	}
	if err := compareSuites(man, doc(1), doc(1.01), io.Discard); err != nil {
		t.Errorf("a 1%% change was reported: %v", err)
	}
	err = compareSuites(man, doc(1), doc(2), io.Discard)
	var reg *errRegression
	if !errors.As(err, &reg) {
		t.Fatalf("a doubled latency passed: %v", err)
	}
	if len(reg.lines) != 1 || !strings.Contains(reg.lines[0], "single-hot") || !strings.Contains(reg.lines[0], "query_p50_ms") {
		t.Errorf("the report does not name the workload and metric: %v", reg.lines)
	}
}
