package bench

import "tartree/internal/lbsn"

// The paper's protocol (Section 8): the same query batch for every method,
// these defaults, and one swept axis per figure. A zero field of a point
// selects the default.
const (
	defaultNodeSize = 1024
	defaultEpoch    = 7 * lbsn.Day
	defaultK        = 10
	defaultAlpha    = 0.3
)

// point is one position on a sweep's axis: the label printed in the first
// column and the parameters that differ from the defaults there.
type point struct {
	label      string
	k          int
	alpha      float64
	nodeSize   int     // R-tree node size in bytes
	epoch      int64   // epoch length in seconds
	cutoffFrac float64 // index and query only this first fraction of the time span; 0 = all
	batch      int     // collective sweeps: queries in the batch
	types      int     // collective sweeps: distinct query intervals
}

func (p point) withDefaults() point {
	if p.k == 0 {
		p.k = defaultK
	}
	if p.alpha == 0 {
		p.alpha = defaultAlpha
	}
	if p.nodeSize == 0 {
		p.nodeSize = defaultNodeSize
	}
	if p.epoch == 0 {
		p.epoch = defaultEpoch
	}
	return p
}

var (
	alphaPoints = []point{
		{label: "0.1", alpha: 0.1}, {label: "0.3", alpha: 0.3}, {label: "0.5", alpha: 0.5},
		{label: "0.7", alpha: 0.7}, {label: "0.9", alpha: 0.9},
	}
	kPoints = []point{
		{label: "1", k: 1}, {label: "5", k: 5}, {label: "10", k: 10}, {label: "50", k: 50}, {label: "100", k: 100},
	}
)

// experiments is the one registry: every experiment is named here and
// nowhere else, in presentation order. cmd/tarbench derives its usage string
// and the "all"/"ablations" selections from it, the root bench_test.go its
// BenchmarkExperiment/<id> set, and DESIGN.md §4 is checked against it. To
// add an experiment, add a row and its run function.
var experiments = []experiment{
	{id: "table2", group: Paper, run: table2,
		doc: "Table 2: discrete power-law fit (n, β̂, x̂min, bootstrap p-value) of the per-POI check-in totals"},
	{id: "table4", group: Paper, run: table4,
		doc: "Table 4: generated data set statistics next to the paper's calibration targets"},
	{id: "fig6", group: Paper, run: costValidation("Figure 6: cost analysis validation, varying k", kPoints),
		doc: "Figure 6: Section-6 estimated vs measured f(pk) and leaf accesses, k ∈ {1..100}"},
	{id: "fig7", group: Paper, run: costValidation("Figure 7: cost analysis validation, varying alpha0", alphaPoints),
		doc: "Figure 7: the same validation, α0 ∈ {0.1..0.9}"},
	{id: "fig8", group: Paper,
		doc: "Figure 8: the four methods while the LBSN grows, snapshots at 20%..100% of the time span",
		run: methodSweep("Figure 8: effect of the LBSN growing with time", "time", []point{
			{label: "20%", cutoffFrac: 0.2}, {label: "40%", cutoffFrac: 0.4}, {label: "60%", cutoffFrac: 0.6},
			{label: "80%", cutoffFrac: 0.8}, {label: "100%", cutoffFrac: 1.0},
		})},
	{id: "fig9", group: Paper, run: methodSweep("Figure 9: varying k", "k", kPoints),
		doc: "Figure 9: the four methods, k ∈ {1..100}"},
	{id: "fig10", group: Paper, run: methodSweep("Figure 10: varying alpha0", "alpha0", alphaPoints),
		doc: "Figure 10: the four methods, α0 ∈ {0.1..0.9}"},
	{id: "fig11", group: Paper,
		doc: "Figure 11: the four methods, epoch length ∈ {1, 3, 7, 14, 28} days",
		run: methodSweep("Figure 11: varying the epoch length", "epoch (days)", []point{
			{label: "1", epoch: 1 * lbsn.Day}, {label: "3", epoch: 3 * lbsn.Day}, {label: "7", epoch: 7 * lbsn.Day},
			{label: "14", epoch: 14 * lbsn.Day}, {label: "28", epoch: 28 * lbsn.Day},
		})},
	{id: "fig12", group: Paper,
		doc: "Figure 12: the four methods, R-tree node size ∈ {512..8192} bytes",
		run: methodSweep("Figure 12: varying the R-tree node size", "node size (B)", []point{
			{label: "512", nodeSize: 512}, {label: "1024", nodeSize: 1024}, {label: "2048", nodeSize: 2048},
			{label: "4096", nodeSize: 4096}, {label: "8192", nodeSize: 8192},
		})},
	{id: "fig13", group: Paper,
		doc: "Figure 13: minimum weight adjustment, enumerating vs pruning, k ∈ {10..1000}",
		run: mwaSweep("Figure 13: computing the MWA, varying k", "k", []point{
			{label: "10", k: 10}, {label: "50", k: 50}, {label: "100", k: 100}, {label: "500", k: 500}, {label: "1000", k: 1000},
		})},
	{id: "fig14", group: Paper, run: mwaSweep("Figure 14: computing the MWA, varying alpha0", "alpha0", alphaPoints),
		doc: "Figure 14: minimum weight adjustment, α0 ∈ {0.1..0.9}"},
	{id: "fig15", group: Paper,
		doc: "Figure 15: collective vs individual processing, batch size ∈ {100..10000} over 5 query types",
		run: collectiveSweep("Figure 15: collective processing, varying the number of queries", "queries", []point{
			{label: "100", batch: 100, types: 5}, {label: "500", batch: 500, types: 5}, {label: "1000", batch: 1000, types: 5},
			{label: "5000", batch: 5000, types: 5}, {label: "10000", batch: 10000, types: 5},
		})},
	{id: "fig16", group: Paper,
		doc: "Figure 16: collective vs individual processing, query types ∈ {1..100} over 1000 queries",
		run: collectiveSweep("Figure 16: collective processing, varying the number of query types", "types", []point{
			{label: "1", batch: 1000, types: 1}, {label: "5", batch: 1000, types: 5}, {label: "10", batch: 1000, types: 10},
			{label: "50", batch: 1000, types: 50}, {label: "100", batch: 1000, types: 100},
		})},

	{id: "calibration", group: Infra, dataset: "GS", scale: 0.06, run: calibrationExp,
		doc: "planner calibration: Section-6 estimate vs executed search over (k, interval) classes, 8 queries each"},
	{id: "smoke", group: Infra, dataset: "GS", scale: 0.06, queries: 20, run: smoke,
		doc: "regression probe behind benchdiff: the four methods on one fixed batch plus a WAL append/replay pass"},

	{id: "abl-backend", group: Ablation, run: ablationBackend,
		doc: "TIA backend: in-memory vs disk B+-tree vs MVBT"},
	{id: "abl-buffer", group: Ablation, run: ablationBuffer,
		doc: "per-TIA buffer slots ∈ {0, 1, 10, 100} (the paper fixes 10)"},
	{id: "abl-reinsert", group: Ablation, run: ablationReinsert,
		doc: "construction: R* forced reinsertion vs plain splits vs STR bulk load"},
	{id: "abl-distscale", group: Ablation, run: ablationDistScale,
		doc: "cost-model √2 distance-scale correction, k ∈ {1, 10, 100}"},
}
