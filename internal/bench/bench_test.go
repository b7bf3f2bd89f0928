package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tartree/internal/obs"
)

// tinyConfig keeps the smoke tests fast.
func tinyConfig() Config {
	return Config{Datasets: []string{"GS"}, Scale: 0.06, Queries: 20, Seed: 1}
}

func TestTablePrint(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "long-header", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	ds := c.datasets()
	if len(ds) != 2 || ds[0] != "GW" || ds[1] != "GS" {
		t.Errorf("default datasets = %v", ds)
	}
	if c.queries() != 200 {
		t.Errorf("default queries = %d", c.queries())
	}
	if c.scaleFor("GW") != 0.5 {
		t.Errorf("default GW scale = %v", c.scaleFor("GW"))
	}
	if (Config{Scale: 0.5}).scaleFor("GW") != 0.5 {
		t.Error("explicit scale ignored")
	}
}

// TestRunRejectsScale: a Scale outside (0, 1] other than 0 is refused before
// anything runs — 2 used to generate scale-1 data under a "scale 2.00" title,
// and -3 silently ran the experiment's default.
func TestRunRejectsScale(t *testing.T) {
	for _, c := range []struct {
		scale float64
		ok    bool
	}{{0, true}, {0.06, true}, {1, true}, {-3, false}, {2, false}, {math.NaN(), false}} {
		cfg := Config{Datasets: []string{"GS"}, Scale: c.scale}
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("scale %v: Validate() = %v", c.scale, err)
		}
		if c.ok {
			continue
		}
		if _, err := Run("smoke", cfg); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Errorf("scale %v: Run error %v, want the out-of-range refusal", c.scale, err)
		}
	}
	if err := (Config{Datasets: []string{"XX"}}).Validate(); err == nil {
		t.Error("unknown data set passed Validate")
	}
}

// TestExperimentTable checks the one registry: ids are unique, every group
// has members, every row can run, and the infra group is exactly the
// experiments with a committed bench/baseline/BENCH_<id>.json (the CI bench
// matrix runs one job per baseline).
func TestExperimentTable(t *testing.T) {
	seen := map[string]Group{}
	groups := map[Group]int{}
	for _, e := range experiments {
		if _, dup := seen[e.id]; dup {
			t.Errorf("experiment id %q appears twice", e.id)
		}
		seen[e.id] = e.group
		groups[e.group]++
		if e.run == nil || e.doc == "" {
			t.Errorf("experiment %q lacks a run function or a doc line", e.id)
		}
	}
	for _, g := range []Group{Paper, Infra, Ablation} {
		if groups[g] == 0 {
			t.Errorf("group %q is empty", g)
		}
	}
	if len(groups) != 3 {
		t.Errorf("groups = %v, want exactly paper, infra, ablation", groups)
	}
	if _, err := Run("no-such-experiment", tinyConfig()); err == nil {
		t.Error("Run accepted an unknown id")
	}

	baselines := baselineIDs(t)
	for id := range baselines {
		if seen[id] != Infra {
			t.Errorf("bench/baseline/BENCH_%s.json names no infra experiment of the table", id)
		}
	}
	for id, g := range seen {
		if g == Infra && !baselines[id] {
			t.Errorf("infra experiment %q has no bench/baseline/BENCH_%s.json", id, id)
		}
	}
}

// baselineIDs lists the experiments with a committed baseline snapshot.
func baselineIDs(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("../../bench/baseline/BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no baselines found: %v", err)
	}
	ids := map[string]bool{}
	for _, p := range paths {
		ids[strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")] = true
	}
	return ids
}

// TestDesignIndex keeps DESIGN.md §4 in step with the table: one index row
// per experiment, naming its id and group, and no row for an id that is gone.
func TestDesignIndex(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	section = section[strings.Index(section, "## 4. Per-experiment index"):]
	section = section[:strings.Index(section, "## 5.")]
	rows := map[string]string{} // id -> group
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) > 3 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
		}
	}
	for _, e := range experiments {
		if rows[e.id] != string(e.group) {
			t.Errorf("DESIGN.md §4: experiment %q (group %s) has index row group %q", e.id, e.group, rows[e.id])
		}
		delete(rows, e.id)
	}
	for id := range rows {
		t.Errorf("DESIGN.md §4 indexes %q, which is not in the experiment table", id)
	}
}

// baselineSnapshot is the part of a BENCH_<id>.json the shape test reads.
type baselineSnapshot struct {
	Config struct {
		Datasets []string
		Scale    float64
		Queries  int
		Seed     int64
	}
	Tables  []Table
	Metrics map[string]any
}

// TestBaselineShapes runs each CI-gated experiment at its baseline's recorded
// config and requires the shape benchdiff compares to be the committed one:
// the same table titles and headers, the same set of bench_* metric names.
// (The counter values are benchdiff's job, in the CI bench matrix.)
func TestBaselineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for id := range baselineIDs(t) {
		id := id
		t.Run(id, func(t *testing.T) {
			raw, err := os.ReadFile("../../bench/baseline/BENCH_" + id + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var want baselineSnapshot
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			c := want.Config
			got, err := Run(id, Config{Datasets: c.Datasets, Scale: c.Scale, Queries: c.Queries, Seed: c.Seed, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Tables) {
				t.Fatalf("%d tables, baseline has %d", len(got), len(want.Tables))
			}
			for i := range got {
				if got[i].Title != want.Tables[i].Title {
					t.Errorf("table %d title %q, baseline %q", i, got[i].Title, want.Tables[i].Title)
				}
				if strings.Join(got[i].Header, "|") != strings.Join(want.Tables[i].Header, "|") {
					t.Errorf("table %d header %v, baseline %v", i, got[i].Header, want.Tables[i].Header)
				}
			}
			names := func(m map[string]any) []string {
				var out []string
				for name := range m {
					if strings.HasPrefix(name, "bench_") {
						out = append(out, name)
					}
				}
				sort.Strings(out)
				return out
			}
			if g, w := names(reg.Snapshot()), names(want.Metrics); strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Errorf("bench_* metric names differ from the baseline:\n got %v\nwant %v", g, w)
			}
		})
	}
}

// runAll smoke-tests a group's experiments at a tiny scale: each must
// produce non-empty tables with consistent row widths.
func runAll(t *testing.T, in func(Group) bool) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	for _, e := range Experiments() {
		if !in(e.Group) {
			continue
		}
		id := e.ID
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("table %q row width %d != header %d", tab.Title, len(row), len(tab.Header))
					}
				}
			}
		})
	}
}

func TestAllExperimentsRun(t *testing.T) { runAll(t, func(g Group) bool { return g != Ablation }) }

func TestAblationsRun(t *testing.T) { runAll(t, func(g Group) bool { return g == Ablation }) }

// TestSingleDatasetExperimentsHonourDatasets: an experiment that runs on one
// data set takes Config.Datasets[0], not the data set of its table row, and
// says so in its table title.
func TestSingleDatasetExperimentsHonourDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, id := range []string{"calibration", "smoke"} {
		tables, err := Run(id, Config{Datasets: []string{"GW"}, Scale: 0.02, Queries: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(tables[0].Title, "GW") || strings.Contains(tables[0].Title, "GS") {
			t.Errorf("%s on GW: table title %q", id, tables[0].Title)
		}
	}
}

// TestSmokeDeterministic runs the regression probe twice with the same
// config and requires identical work counters — the property cmd/benchdiff
// relies on to gate CI on counts instead of wall-clock.
func TestSmokeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	counters := func() map[string]int64 {
		reg := obs.NewRegistry()
		cfg := tinyConfig()
		cfg.Metrics = reg
		if _, err := Run("smoke", cfg); err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for name, v := range reg.Snapshot() {
			if n, ok := v.(int64); ok {
				out[name] = n
			}
		}
		return out
	}
	a, b := counters(), counters()
	if len(a) == 0 {
		t.Fatal("smoke exported no counters")
	}
	for name, v := range a {
		if b[name] != v {
			t.Errorf("counter %s: %d vs %d across identical runs", name, v, b[name])
		}
	}
	for _, method := range []string{"baseline", "IND-agg", "IND-spa", "TAR-tree"} {
		if a[fmt.Sprintf(`bench_results_total{method=%q}`, method)] == 0 {
			t.Errorf("method %s returned no results", method)
		}
	}
}

// TestFig9TARWins checks the headline claim on the generated data: at every
// k the TAR-tree needs no more node accesses than IND-spa and IND-agg.
func TestFig9TARWins(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := tinyConfig()
	cfg.Scale = 0.3 // enough POIs that pruning matters
	cfg.Queries = 60
	tables, err := Run("fig9", cfg)
	if err != nil {
		t.Fatal(err)
	}
	accesses := map[string]map[string]float64{} // k -> method -> NA
	for _, row := range tables[0].Rows {
		k, method, na := row[0], row[1], row[3]
		if na == "-" {
			continue
		}
		v, err := strconv.ParseFloat(na, 64)
		if err != nil {
			t.Fatal(err)
		}
		if accesses[k] == nil {
			accesses[k] = map[string]float64{}
		}
		accesses[k][method] = v
	}
	// At the smoke-test scale individual k points are noisy (a handful of
	// node accesses); assert over the whole sweep, and that no single point
	// is a blowout.
	totals := map[string]float64{}
	for k, m := range accesses {
		for method, v := range m {
			totals[method] += v
		}
		if m["TAR-tree"] > m["IND-spa"]*1.5 || m["TAR-tree"] > m["IND-agg"]*1.5 {
			t.Errorf("k=%s: TAR-tree %.1f far worse than alternatives (%.1f / %.1f)",
				k, m["TAR-tree"], m["IND-spa"], m["IND-agg"])
		}
	}
	if totals["TAR-tree"] >= totals["IND-spa"] {
		t.Errorf("sweep total: TAR-tree %.1f not better than IND-spa %.1f", totals["TAR-tree"], totals["IND-spa"])
	}
	if totals["TAR-tree"] >= totals["IND-agg"] {
		t.Errorf("sweep total: TAR-tree %.1f not better than IND-agg %.1f", totals["TAR-tree"], totals["IND-agg"])
	}
}

func TestClassLayers(t *testing.T) {
	// All zeros: a single zero layer, maxAgg floor of 1.
	layers, maxAgg := classLayers([]int64{0, 0, 0})
	if len(layers) != 1 || layers[0].X != 0 || maxAgg != 1 {
		t.Fatalf("zero-only layers = %v maxAgg=%d", layers, maxAgg)
	}
	// Mixed data: layers ascend in X and cover the total population.
	aggs := make([]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		if i%3 == 0 {
			aggs = append(aggs, 0)
		} else {
			aggs = append(aggs, int64(1+i%40))
		}
	}
	layers, maxAgg = classLayers(aggs)
	if maxAgg != 40 {
		t.Errorf("maxAgg = %d", maxAgg)
	}
	prev := int64(-1)
	var total float64
	for _, l := range layers {
		if l.X <= prev {
			t.Fatalf("layers out of order at %d", l.X)
		}
		prev = l.X
		total += l.Count
	}
	// The modeled population is within 20% of the actual count (the
	// power-law tail replaces the empirical tail).
	if total < 2400 || total > 3600 {
		t.Errorf("modeled population = %.0f, actual 3000", total)
	}
}
