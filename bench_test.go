// Benchmarks that regenerate the paper's evaluation, one per table and
// figure (Section 8). Each benchmark runs the corresponding experiment of
// internal/bench at a reduced scale so `go test -bench=.` completes in
// minutes; `cmd/tarbench` runs the same experiments at any scale and prints
// the full tables. The benchmarks report the TAR-tree's mean node accesses
// per query as a custom metric where the experiment measures them.
package tartree_test

import (
	"strconv"
	"testing"

	"tartree/internal/bench"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
)

// benchConfig keeps a full -bench=. sweep fast while preserving trends.
func benchConfig() bench.Config {
	return bench.Config{Datasets: []string{"GS"}, Scale: 0.06, Queries: 10, Seed: 1}
}

// runExperiment executes one experiment per benchmark iteration and, when a
// node-access column exists, reports the TAR-tree's (or the last method's)
// mean as a metric.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	fn := bench.Experiments[id]
	if fn == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var lastNA float64
	for i := 0; i < b.N; i++ {
		tables, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			naCol := -1
			for c, h := range t.Header {
				if h == "node accesses" {
					naCol = c
				}
			}
			if naCol < 0 {
				continue
			}
			for _, row := range t.Rows {
				if v, err := strconv.ParseFloat(row[naCol], 64); err == nil {
					lastNA = v
				}
			}
		}
	}
	if lastNA > 0 {
		b.ReportMetric(lastNA, "node-accesses/query")
	}
}

// Table 2: power-law fitting of the aggregate data (Section 6.1).
func BenchmarkTable2PowerLawFit(b *testing.B) { runExperiment(b, "table2") }

// Table 4: data set statistics (generator calibration).
func BenchmarkTable4Datasets(b *testing.B) { runExperiment(b, "table4") }

// Figure 6: cost analysis validation varying k.
func BenchmarkFig6CostValidationK(b *testing.B) { runExperiment(b, "fig6") }

// Figure 7: cost analysis validation varying α0.
func BenchmarkFig7CostValidationAlpha(b *testing.B) { runExperiment(b, "fig7") }

// Figure 8: TAR-tree vs alternatives while the LBSN grows.
func BenchmarkFig8Growth(b *testing.B) { runExperiment(b, "fig8") }

// Figure 9: TAR-tree vs alternatives varying k.
func BenchmarkFig9VaryK(b *testing.B) { runExperiment(b, "fig9") }

// Figure 10: TAR-tree vs alternatives varying α0.
func BenchmarkFig10VaryAlpha(b *testing.B) { runExperiment(b, "fig10") }

// Figure 11: TAR-tree vs alternatives varying the epoch length.
func BenchmarkFig11EpochLength(b *testing.B) { runExperiment(b, "fig11") }

// Figure 12: TAR-tree vs alternatives varying the R-tree node size.
func BenchmarkFig12NodeSize(b *testing.B) { runExperiment(b, "fig12") }

// Figure 13: minimum weight adjustment, enumerating vs pruning, varying k.
func BenchmarkFig13MWAVaryK(b *testing.B) { runExperiment(b, "fig13") }

// Figure 14: minimum weight adjustment varying α0.
func BenchmarkFig14MWAVaryAlpha(b *testing.B) { runExperiment(b, "fig14") }

// Figure 15: collective vs individual processing, varying the batch size.
func BenchmarkFig15CollectiveN(b *testing.B) { runExperiment(b, "fig15") }

// Figure 16: collective vs individual processing, varying the query types.
func BenchmarkFig16CollectiveTypes(b *testing.B) { runExperiment(b, "fig16") }

// Ablation benchmarks: design choices beyond the paper's figures.

// TIA backend choice (mem / B+-tree / MVBT).
func BenchmarkAblationTIABackend(b *testing.B) { runExperiment(b, "abl-backend") }

// Per-TIA buffer pool size (the paper fixes 10 slots).
func BenchmarkAblationBufferSlots(b *testing.B) { runExperiment(b, "abl-buffer") }

// R* forced reinsertion vs plain splits vs STR bulk loading.
func BenchmarkAblationReinsert(b *testing.B) { runExperiment(b, "abl-reinsert") }

// Cost-model distance-scale correction.
func BenchmarkAblationDistScale(b *testing.B) { runExperiment(b, "abl-distscale") }

// Observability overhead: BenchmarkQuery_Bare vs BenchmarkQuery_Instrumented
// run the same query stream against an uninstrumented and a fully
// instrumented (Options.Metrics, no span) tree. Compare with benchstat
// over -count=10: the expected delta is <2%, because the span-less path
// is nil-receiver no-ops, per-query metrics are a dozen atomic adds,
// and the page sink costs one interface call per TIA buffer access. Single
// runs on a shared machine have more noise than the effect being measured.

func benchQueryTree(b *testing.B, reg *obs.Registry) {
	b.Helper()
	spec, err := lbsn.SpecByName("GS")
	if err != nil {
		b.Fatal(err)
	}
	d, err := lbsn.Generate(spec.Scaled(0.06))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := d.Build(lbsn.BuildOptions{Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	queries := d.Queries(64, 10, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_Bare(b *testing.B) { benchQueryTree(b, nil) }

func BenchmarkQuery_Instrumented(b *testing.B) { benchQueryTree(b, obs.NewRegistry()) }
