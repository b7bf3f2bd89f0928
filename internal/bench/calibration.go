package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/planner"
	"tartree/internal/tia"
)

// Calibration experiment: a deterministic sweep of (k, interval-length)
// query classes that measures how far the Section-6 estimates (node
// accesses, f(pk)) land from the executed search — the paper's Section 6.4
// estimate-accuracy evaluation as a CI-gated counter set instead of a
// figure.
//
// The exported metrics depend only on the workload shape — the cost model,
// the power-law fit, the tree build and the best-first search are all
// deterministic under a fixed seed — so benchdiff gates them exactly:
//
//	bench_planner_queries_total{class="..."}
//	bench_planner_engine_total{class="...",engine="..."}
//	bench_planner_est_node_accesses_total{class="..."}   (rounded sum)
//	bench_planner_actual_node_accesses_total{class="..."}
//	bench_planner_access_error_abs_pct{class="..."}      (mean |signed error|)
//	bench_planner_fk_error_abs_pct{class="..."}
//
// The error gauges are the calibration gate proper: a cost-model change
// that silently drifts the estimates past the tolerance fails benchdiff.
// With Config.ExplainOut set, every query's full explain object is
// appended as one JSON line, giving CI a queryable forensic artifact.
const calibrationQueriesPerClass = 8

// calibrationClasses sweeps k toward the dataset size and the interval
// from narrow to wide — the two axes along which the tree-vs-scan
// crossover and the estimate error move.
var calibrationClasses = []struct {
	k    int
	days int64
}{
	{1, 8},
	{10, 8},
	{10, 128},
	{100, 128},
	{1000, 512},
}

// explainLine is one JSONL row of the calibration explain artifact.
type explainLine struct {
	Class   string        `json:"class"`
	K       int           `json:"k"`
	Days    int64         `json:"days"`
	Query   int           `json:"query"`
	Explain *core.Explain `json:"explain"`
}

// calibrationExp runs the calibration sweep over a TAR3D tree with the
// paper's defaults. Config.Queries does not apply: every class runs
// calibrationQueriesPerClass queries, as the table title says.
func calibrationExp(r *run, env *dataEnv) error {
	tr, err := env.Build(lbsn.BuildOptions{
		Grouping:    core.TAR3D,
		NodeSize:    defaultNodeSize,
		EpochLength: defaultEpoch,
	})
	if err != nil {
		return err
	}
	pl, err := planner.New(tr)
	if err != nil {
		return err
	}
	if r.Metrics != nil {
		// The fleet-level planner series accumulate alongside the bench_*
		// counters, so the snapshot shows both views of the same sweep.
		pl.Instrument(r.Metrics)
	}

	t := r.table(fmt.Sprintf("Calibration: Section-6 estimate vs actual (%s, scale %.2f, TAR-tree, %d queries/class)",
		env.name, env.scale, calibrationQueriesPerClass),
		"class", "engine", "est NA", "actual NA", "NA err", "est f(pk)", "actual f(pk)", "f(pk) err")
	ctx := context.Background()
	var enc *json.Encoder
	if r.ExplainOut != nil {
		enc = json.NewEncoder(r.ExplainOut)
	}
	for ci, class := range calibrationClasses {
		label := fmt.Sprintf("k%d_d%d", class.k, class.days)
		span := env.Spec.End - env.Spec.Start
		length := class.days * lbsn.Day
		if length > span {
			length = span
		}
		iv := tia.Interval{Start: env.Spec.End - length, End: env.Spec.End}
		queries := env.QueriesWithIntervals(
			calibrationQueriesPerClass, class.k, defaultAlpha, r.Seed+int64(23+ci), []tia.Interval{iv})

		var (
			estNA, actNA           float64
			estFk, actFk           float64
			naErrSum, fkErrSum     float64 // |signed relative error| sums
			naMeasured, fkMeasured int
			engines                = map[planner.Engine]int{}
		)
		for qi, qu := range queries {
			exp := core.NewExplain()
			_, plan, _, err := pl.QueryCtx(ctx, qu, &core.QueryOpts{Explain: exp})
			if err != nil {
				return fmt.Errorf("%s query %d: %w", label, qi, err)
			}
			engines[plan.Engine]++
			estNA += plan.EstimatedNodeAccesses
			estFk += plan.EstimatedFk
			actFk += exp.ActualFk
			if plan.Engine == planner.UseIndex {
				actual := float64(exp.NodeAccesses())
				actNA += actual
				if actual > 0 {
					naErrSum += math.Abs((plan.EstimatedNodeAccesses - actual) / actual)
					naMeasured++
				}
			}
			if exp.ActualFk > 0 {
				fkErrSum += math.Abs((plan.EstimatedFk - exp.ActualFk) / exp.ActualFk)
				fkMeasured++
			}
			if enc != nil {
				if err := enc.Encode(explainLine{
					Class: label, K: class.k, Days: class.days, Query: qi, Explain: exp,
				}); err != nil {
					return fmt.Errorf("%s: explain artifact: %w", label, err)
				}
			}
		}
		n := float64(len(queries))
		naErrPct, fkErrPct := 0.0, 0.0
		if naMeasured > 0 {
			naErrPct = 100 * naErrSum / float64(naMeasured)
		}
		if fkMeasured > 0 {
			fkErrPct = 100 * fkErrSum / float64(fkMeasured)
		}
		engineCell := ""
		for _, e := range []planner.Engine{planner.UseIndex, planner.UseScan} {
			if c := engines[e]; c > 0 {
				if engineCell != "" {
					engineCell += " + "
				}
				engineCell += fmt.Sprintf("%d×%s", c, e)
			}
		}
		t.add(label, engineCell, f1(estNA/n), f1(actNA/n), fmt.Sprintf("%.1f%%", naErrPct),
			f3(estFk/n), f3(actFk/n), fmt.Sprintf("%.1f%%", fkErrPct))

		r.count("bench_planner_queries_total", int64(len(queries)), "class", label)
		for e, c := range engines {
			r.count("bench_planner_engine_total", int64(c), "class", label, "engine", e.String())
		}
		r.count("bench_planner_est_node_accesses_total", int64(math.Round(estNA)), "class", label)
		r.count("bench_planner_actual_node_accesses_total", int64(math.Round(actNA)), "class", label)
		r.gauge("bench_planner_access_error_abs_pct", math.Round(naErrPct*10)/10, "class", label)
		r.gauge("bench_planner_fk_error_abs_pct", math.Round(fkErrPct*10)/10, "class", label)
	}
	return nil
}
