// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 8), plus the two infrastructure
// experiments CI gates and the ablations DESIGN.md calls out. One ordered
// table (experiments.go) names every experiment; Run executes one of them in
// a run context that owns what they all share: resolving the data set, scale
// and query-count defaults, generating the data, emitting metrics, and the
// single loop that times a query batch (measure).
// cmd/tarbench prints the tables and the root bench_test.go wraps each id as
// BenchmarkExperiment/<id>.
//
// Following the paper's setup: the R-tree node size is 1024 bytes (50
// two-dimensional / 36 three-dimensional entries), the epoch length is 7
// days, each TIA has 10 buffer slots, POIs need 15/10/100/50 check-ins to
// be indexed, and 1000 queries are generated with the query point sampled
// from the POIs and the interval length drawn from 2^0..2^9 days. By
// default k = 10 and α0 = 0.3. Because the original data sets are not
// available offline, the harness runs on the calibrated synthetic data of
// internal/lbsn, scaled so an experiment finishes in minutes; absolute
// numbers differ from the paper, trends and ratios are the comparison.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/seqscan"
	"tartree/internal/tia"
)

// Config parameterizes an experiment run.
type Config struct {
	// Datasets to run on; nil selects GW and GS, the two the paper presents.
	// Experiments that run on one data set (see their table row) take the
	// first.
	Datasets []string
	// Scale shrinks the data sets and must lie in (0, 1]; 0 selects the
	// experiment's default, or else per-dataset defaults that keep a full
	// experiment within minutes.
	Scale float64
	// Queries per measurement; 0 selects the experiment's default, or else
	// 200 (the paper uses 1000).
	Queries int
	// Seed for query generation.
	Seed int64
	// Metrics, when set, collects per-method query-latency histograms
	// (bench_query_latency_seconds{method="..."}) across the whole run and
	// the experiments' bench_* work counters, which cmd/tarbench -json
	// exports next to the tables.
	Metrics *obs.Registry
	// TraceSink, when set, receives one finished span trace per measured
	// query batch: a bench_batch root span (method/queries attrs) with one
	// child span per query; index methods additionally record their cache
	// probe and best-first search stages below each query span. cmd/tarbench
	// -trace-out writes these as Chrome trace_event JSON.
	TraceSink obs.TraceSink
	// ExplainOut, when set, receives one JSON line per explained query from
	// experiments that run with an explain recorder (currently the
	// calibration sweep). cmd/tarbench -explain-out points it at a file.
	ExplainOut io.Writer
}

func (c Config) datasets() []string {
	if len(c.Datasets) == 0 {
		return []string{"GW", "GS"}
	}
	return c.Datasets
}

// defaultScales keep experiment sweeps within minutes while leaving
// thousands of effective POIs after the check-in thresholds. GW at scale 1
// has 1.28M raw POIs; halving it keeps generation fast without changing the
// distributions.
var defaultScales = map[string]float64{
	"NYC": 1.0, "LA": 1.0, "GW": 0.5, "GS": 1.0,
}

func (c Config) scaleFor(name string) float64 {
	if c.Scale != 0 {
		return c.Scale
	}
	if s, ok := defaultScales[name]; ok {
		return s
	}
	return 0.1
}

// Validate reports what Run refuses: a data set lbsn does not know, or a
// Scale outside (0, 1] other than 0 — lbsn.SpecFor's rule.
func (c Config) Validate() error {
	for _, name := range c.datasets() {
		if _, err := lbsn.SpecFor(name, c.scaleFor(name)); err != nil {
			return err
		}
	}
	return nil
}

func (c Config) queries() int {
	if c.Queries > 0 {
		return c.Queries
	}
	return 200
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// add appends one row; cells are rendered with fmt.Sprint, so counts go in
// as numbers and anything needing a format as a string.
func (t *Table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Group classifies an experiment: a table or figure of the paper, an
// infrastructure experiment (one CI gates against a committed baseline), or
// an ablation of one design choice.
type Group string

const (
	Paper    Group = "paper"
	Infra    Group = "infra"
	Ablation Group = "ablation"
)

// experiment is one row of the experiment table. The defaults are data: the
// run context resolves Config against them, so no experiment body reads a
// zero Config field.
type experiment struct {
	id    string
	group Group
	doc   string // one line: what the experiment shows and what it sweeps
	// dataset, when set, makes this a one-data-set experiment: it runs on
	// Config.Datasets[0], or on this one when none is configured.
	dataset string
	scale   float64 // replaces the per-dataset default scale when Config.Scale is 0
	queries int     // replaces the 200-query default when Config.Queries is 0
	run     func(r *run, env *dataEnv) error
}

// Info describes one experiment of the table to the front ends.
type Info struct {
	ID    string
	Group Group
	Doc   string
}

// Experiments lists the experiment table in its presentation order: the
// paper's tables and figures, the infrastructure experiments, the ablations.
func Experiments() []Info {
	out := make([]Info, len(experiments))
	for i, e := range experiments {
		out[i] = Info{ID: e.id, Group: e.group, Doc: e.doc}
	}
	return out
}

// Run executes the experiment with the given id and returns its tables. A
// Config that fails Validate runs nothing.
func Run(id string, cfg Config) ([]Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i := range experiments {
		if experiments[i].id == id {
			tables, err := experiments[i].execute(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			return tables, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// execute resolves cfg against the experiment's defaults and calls the body
// once per data set. It is the one place that iterates the configured data
// sets and the one place that generates them.
func (e *experiment) execute(cfg Config) ([]Table, error) {
	r := &run{Config: cfg}
	if r.Queries == 0 {
		r.Queries = e.queries
	}
	r.Queries = r.queries()
	switch {
	case e.dataset == "":
		r.Datasets = cfg.datasets()
	case len(cfg.Datasets) == 0:
		r.Datasets = []string{e.dataset}
	default:
		r.Datasets = cfg.Datasets[:1]
	}
	for _, name := range r.Datasets {
		sc := e.scale
		if cfg.Scale != 0 || sc == 0 {
			sc = cfg.scaleFor(name)
		}
		spec, err := lbsn.SpecFor(name, sc)
		if err != nil {
			return nil, err
		}
		d, err := lbsn.Generate(spec)
		if err != nil {
			return nil, err
		}
		if err := e.run(r, &dataEnv{Dataset: d, name: name, scale: sc}); err != nil {
			return nil, err
		}
	}
	out := make([]Table, len(r.tables))
	for i, t := range r.tables {
		out[i] = *t
	}
	return out, nil
}

// run is the context an experiment body executes in: the Config with every
// default resolved (Datasets, Queries; the scale is the env's), and the
// tables produced so far.
type run struct {
	Config
	tables []*Table
}

// table returns the run's table with this title, creating it on first use —
// a body invoked once per data set keeps adding rows to the same table.
func (r *run) table(title string, header ...string) *Table {
	for _, t := range r.tables {
		if t.Title == title {
			return t
		}
	}
	t := &Table{Title: title, Header: header}
	r.tables = append(r.tables, t)
	return t
}

// series renders a metric name with its label pairs (key, value, ...).
func series(name string, labels []string) string {
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		name += fmt.Sprintf("%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		name += "}"
	}
	return name
}

// count adds v to a work counter of the run's registry, if it has one. The
// counters depend only on the workload shape — never on timing — which is
// what lets benchdiff gate on them across machines.
func (r *run) count(name string, v int64, labels ...string) {
	if r.Metrics != nil {
		r.Metrics.Counter(series(name, labels)).Add(v)
	}
}

// gauge sets a gauge of the run's registry, if it has one.
func (r *run) gauge(name string, v float64, labels ...string) {
	if r.Metrics != nil {
		r.Metrics.Gauge(series(name, labels)).Set(v)
	}
}

// dataEnv is one generated data set at one scale.
type dataEnv struct {
	*lbsn.Dataset
	name  string
	scale float64
}

// paperTIA is the paper's TIA set-up of Section 4.1: a disk B+-tree per
// entry on pages of the R-tree's node size, behind ten buffer slots.
func paperTIA(nodeSize int) tia.Factory { return tia.NewBTreeFactory(nodeSize, 10) }

// Build indexes the data set on the paper's TIA set-up unless the
// experiment names another factory: the experiments count page accesses,
// which the trees' own in-memory default has none of.
func (e *dataEnv) Build(o lbsn.BuildOptions) (*core.Tree, error) {
	if o.TIA == nil {
		nodeSize := o.NodeSize
		if nodeSize == 0 {
			nodeSize = defaultNodeSize
		}
		o.TIA = paperTIA(nodeSize)
	}
	return e.Dataset.Build(o)
}

// indexed calls fn for the POIs Build indexes under the same epoch grid and
// cutoff, each with its epoch history.
func (e *dataEnv) indexed(epochLength, cutoff int64, fn func(p core.POI, hist []tia.Record)) {
	for i := range e.POIs {
		p := &e.POIs[i]
		hist := lbsn.History(p, e.Spec.Start, epochLength, cutoff)
		var total int64
		for _, r := range hist {
			total += r.Agg
		}
		if total < e.Spec.MinEffective {
			continue
		}
		fn(core.POI{ID: p.ID, X: p.X, Y: p.Y}, hist)
	}
}

// method is one of the compared query processors.
type method struct {
	name string
	q    core.Querier
}

// buildAll constructs the four methods in the paper's presentation order —
// the sequential-scan baseline and the three index variants — over the data
// set (indexing check-ins before cutoff; 0 = all).
func (e *dataEnv) buildAll(nodeSize int, epochLength, cutoff int64) ([]method, error) {
	scan := seqscan.New(e.World, tia.Contained)
	e.indexed(epochLength, cutoff, scan.Add)
	out := []method{{"baseline", scan}}
	for _, g := range []core.Grouping{core.IndAgg, core.IndSpa, core.TAR3D} {
		tr, err := e.Build(lbsn.BuildOptions{
			Grouping:    g,
			NodeSize:    nodeSize,
			EpochLength: epochLength,
			Cutoff:      cutoff,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, method{g.String(), tr})
	}
	return out, nil
}

// measurement is what one measured batch did: the work totals the
// experiments read, and the latency distribution of the batch.
type measurement struct {
	queries int
	elapsed time.Duration   // summed per-query wall time
	work    core.QueryStats // merged over the batch
	results int64           // answers returned, summed
	fkSum   float64         // summed k-th (last) score
	latency obs.HistogramSnapshot
}

// mean renders a batch total as a per-query mean.
func (m *measurement) mean(total int64) string { return f1(float64(total) / float64(m.queries)) }

// meanMS is the mean CPU time per query in milliseconds.
func (m *measurement) meanMS() string { return f3(m.elapsed.Seconds() * 1000 / float64(m.queries)) }

// meanFk is the mean k-th score of the batch.
func (m *measurement) meanFk() string { return f3(m.fkSum / float64(m.queries)) }

// nodeAccesses is the R-tree node accesses of the batch.
func (m *measurement) nodeAccesses() int64 { return int64(m.work.RTreeAccesses()) }

// measure runs the query batch against q, one query at a time — the only
// loop in the package that times queries, so every method of every
// experiment is measured through the same path. opts (nil for the defaults)
// applies to every query. The method labels the run-wide latency series:
// with Config.Metrics set the observations also accumulate in
// bench_query_latency_seconds{method="..."}. With Config.TraceSink set the
// batch is one bench_batch trace with a child span per query.
func (r *run) measure(method string, q core.Querier, queries []core.Query, opts *core.QueryOpts) (measurement, error) {
	m := measurement{queries: len(queries)}
	local := obs.NewHistogram(nil)
	var shared *obs.Histogram
	if r.Metrics != nil {
		shared = r.Metrics.Histogram(series("bench_query_latency_seconds", []string{"method", method}), nil)
	}
	// A nil TraceSink makes bt nil and every span call below a no-op.
	bt := obs.StartTrace("bench_batch", obs.SpanContext{}, r.TraceSink)
	bt.SetAttr("method", method)
	bt.SetAttr("queries", len(queries))
	defer bt.Finish()
	var o core.QueryOpts
	if opts != nil {
		o = *opts
	}
	for _, qu := range queries {
		o.Span = bt.StartChild("query")
		start := time.Now()
		res, stats, err := q.QueryCtx(context.Background(), qu, &o)
		elapsed := time.Since(start)
		o.Span.End()
		if err != nil {
			return m, err
		}
		local.Observe(elapsed.Seconds())
		if shared != nil {
			shared.Observe(elapsed.Seconds())
		}
		m.elapsed += elapsed
		m.work.Merge(&stats)
		m.results += int64(len(res))
		if len(res) > 0 {
			m.fkSum += res[len(res)-1].Score
		}
	}
	m.latency = local.Snapshot()
	return m, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
