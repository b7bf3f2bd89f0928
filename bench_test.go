// Benchmarks that regenerate the paper's evaluation: BenchmarkExperiment has
// one sub-benchmark per row of internal/bench's experiment table (Section 8's
// tables and figures, the infrastructure experiments, the ablations), each
// running that experiment at a reduced scale so `go test -bench=.` completes
// in minutes; `cmd/tarbench` runs the same experiments at any scale and
// prints the full tables. A sub-benchmark reports the TAR-tree's mean node
// accesses per query as a custom metric where the experiment measures them.
package tartree_test

import (
	"context"
	"strconv"
	"testing"

	"tartree/internal/bench"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
)

// BenchmarkExperiment runs every experiment of the table, one iteration per
// run; e.g. -bench 'Experiment/fig9$' regenerates Figure 9.
func BenchmarkExperiment(b *testing.B) {
	// Small enough that a full -bench=. sweep stays fast, large enough to
	// preserve the trends.
	cfg := bench.Config{Datasets: []string{"GS"}, Scale: 0.06, Queries: 10, Seed: 1}
	for _, e := range bench.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			var lastNA float64 // the last row's: the TAR-tree's (or the last method's)
			for i := 0; i < b.N; i++ {
				tables, err := bench.Run(e.ID, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range tables {
					for c, h := range t.Header {
						if h != "node accesses" {
							continue
						}
						for _, row := range t.Rows {
							if v, err := strconv.ParseFloat(row[c], 64); err == nil {
								lastNA = v
							}
						}
					}
				}
			}
			if lastNA > 0 {
				b.ReportMetric(lastNA, "node-accesses/query")
			}
		})
	}
}

// Observability overhead: BenchmarkQuery_Bare vs BenchmarkQuery_Instrumented
// run the same query stream against an uninstrumented and a fully
// instrumented (Options.Metrics, no span) tree, both on the default
// in-memory TIAs a server runs. Compare with benchstat over -count=10: the
// expected delta is <2%, because the span-less path is nil-receiver no-ops
// and per-query metrics are a dozen atomic adds. Single runs on a shared
// machine have more noise than the effect being measured.

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
		if _, _, err := tr.QueryCtx(context.Background(), queries[i%len(queries)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_Bare(b *testing.B) { benchQueryTree(b, nil) }

func BenchmarkQuery_Instrumented(b *testing.B) { benchQueryTree(b, obs.NewRegistry()) }
