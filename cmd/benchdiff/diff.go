package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"tartree/internal/obs"
)

// snapshot is the subset of a BENCH_<exp>.json document benchdiff compares.
// The metrics map mixes counter samples (JSON numbers) and histogram
// snapshots (objects with count/sum/p50/p95/p99); both are kept raw and
// classified per key.
type snapshot struct {
	Experiment string                     `json:"experiment"`
	Config     map[string]any             `json:"config"`
	Metrics    map[string]json.RawMessage `json:"metrics"`
	TIAProbes  map[string]int64           `json:"tia_probes"`
}

// histogram is the HistogramSnapshot shape written by tarbench.
type histogram struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func readSnapshot(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if s.Metrics == nil {
		return s, fmt.Errorf("%s: no metrics section (was the run missing -json?)", path)
	}
	return s, nil
}

// options are the regression thresholds. A metric regresses when
// current > baseline * tol (tol 1.10 = allow 10% growth); drops are
// reported as improvements, never as failures.
type options struct {
	CountTol    float64 // deterministic work counters and probe counts
	LatencyTol  float64 // histogram p50/p95
	SkipLatency bool    // ignore latency metrics (CI machines are noisy)
}

// finding is one compared sample.
type finding struct {
	Name       string
	Baseline   float64
	Current    float64
	Tol        float64
	Regression bool
	Missing    bool // metric present in the baseline, absent in the run
	// HigherBetter marks throughput-style samples (:qps), where a drop is
	// the regression and growth is the improvement.
	HigherBetter bool
}

func (f finding) String() string {
	if f.Missing {
		return fmt.Sprintf("MISSING  %-60s baseline %.6g", f.Name, f.Baseline)
	}
	verdict := "ok"
	switch {
	case f.Regression:
		verdict = "REGRESSION"
	case f.HigherBetter && f.Baseline > 0 && f.Current > f.Baseline*f.Tol:
		verdict = "improved"
	case !f.HigherBetter && f.Baseline > 0 && f.Current < f.Baseline/f.Tol:
		verdict = "improved"
	}
	return fmt.Sprintf("%-10s %-60s %.6g -> %.6g (tol ×%.2f)",
		verdict, f.Name, f.Baseline, f.Current, f.Tol)
}

// isLatencyKey classifies a metric name: histogram-backed series carry
// seconds in the base name.
func isLatencyKey(name string) bool {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	return strings.HasSuffix(base, "_seconds")
}

// regressed applies the threshold. A baseline of zero regresses only when
// the run grew a meaningful value (guards against 0 → 0.0001 flapping).
func regressed(base, cur, tol float64) bool {
	if base == 0 {
		return cur > 1
	}
	return cur > base*tol
}

// evalSLOs gates a single snapshot against parsed objectives. An objective
// for service S applies to every histogram metric whose base name contains
// "S_latency_seconds" (so "query:p99<50ms" covers each
// bench_query_latency_seconds{method=...} series); the snapshot's recorded
// quantile must sit at or under the threshold. error_rate objectives are
// skipped — bench snapshots carry no error counts. An objective matching no
// metric is itself a failure: a gate that silently checks nothing is worse
// than no gate.
func evalSLOs(objs []obs.Objective, snap snapshot) []finding {
	var out []finding
	names := make([]string, 0, len(snap.Metrics))
	for name := range snap.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, o := range objs {
		if o.Kind == "error_rate" {
			continue
		}
		matched := false
		for _, name := range names {
			base := name
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			if !strings.Contains(base, o.Service+"_latency_seconds") {
				continue
			}
			var h histogram
			if json.Unmarshal(snap.Metrics[name], &h) != nil || h.Count == 0 {
				continue
			}
			var q float64
			switch o.Kind {
			case "p50":
				q = h.P50
			case "p95":
				q = h.P95
			case "p99":
				q = h.P99
			default:
				out = append(out, finding{
					Name: "slo " + o.String(), Baseline: o.Threshold,
					Missing: true, Regression: true,
				})
				continue
			}
			matched = true
			out = append(out, finding{
				Name:     "slo " + o.String() + " @ " + name,
				Baseline: o.Threshold, Current: q, Tol: 1,
				Regression: q > o.Threshold,
			})
		}
		if !matched {
			out = append(out, finding{
				Name:     "slo " + o.String() + " (no matching metric)",
				Baseline: o.Threshold, Missing: true, Regression: true,
			})
		}
	}
	return out
}

// compare walks every baseline metric and probe count. Samples only in the
// current snapshot are ignored: new metrics are not regressions.
func compare(base, cur snapshot, opt options) []finding {
	var out []finding
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		latency := isLatencyKey(name)
		if latency && opt.SkipLatency {
			continue
		}
		var bh, ch histogram
		if err := json.Unmarshal(base.Metrics[name], &bh); err == nil && bh.Count > 0 {
			raw, ok := cur.Metrics[name]
			if !ok || json.Unmarshal(raw, &ch) != nil {
				out = append(out, finding{Name: name, Baseline: float64(bh.Count), Missing: true, Regression: true})
				continue
			}
			// The observation count is deterministic (one per query);
			// the quantiles are wall-clock and get the looser tolerance.
			out = append(out, finding{
				Name: name + ":count", Baseline: float64(bh.Count), Current: float64(ch.Count),
				Tol: opt.CountTol, Regression: regressed(float64(bh.Count), float64(ch.Count), opt.CountTol),
			})
			if !latency {
				continue
			}
			for _, q := range []struct {
				suffix    string
				base, cur float64
			}{{":p50", bh.P50, ch.P50}, {":p95", bh.P95, ch.P95}} {
				out = append(out, finding{
					Name: name + q.suffix, Baseline: q.base, Current: q.cur,
					Tol: opt.LatencyTol, Regression: regressed(q.base, q.cur, opt.LatencyTol),
				})
			}
			// Throughput: count/sum is the aggregate queries-per-second the
			// histogram implies. Higher is better, so the regression test is
			// inverted: fail when the run fell below baseline/tol.
			if bh.Sum > 0 && ch.Sum > 0 {
				bq, cq := float64(bh.Count)/bh.Sum, float64(ch.Count)/ch.Sum
				out = append(out, finding{
					Name: name + ":qps", Baseline: bq, Current: cq,
					Tol: opt.LatencyTol, HigherBetter: true,
					Regression: bq > 0 && cq < bq/opt.LatencyTol,
				})
			}
			continue
		}
		var bv float64
		if err := json.Unmarshal(base.Metrics[name], &bv); err != nil {
			continue // non-numeric, non-histogram: nothing to compare
		}
		raw, ok := cur.Metrics[name]
		var cv float64
		if !ok || json.Unmarshal(raw, &cv) != nil {
			out = append(out, finding{Name: name, Baseline: bv, Missing: true, Regression: true})
			continue
		}
		tol := opt.CountTol
		if latency {
			tol = opt.LatencyTol
		}
		out = append(out, finding{
			Name: name, Baseline: bv, Current: cv,
			Tol: tol, Regression: regressed(bv, cv, tol),
		})
	}

	probes := make([]string, 0, len(base.TIAProbes))
	for k := range base.TIAProbes {
		probes = append(probes, k)
	}
	sort.Strings(probes)
	for _, k := range probes {
		bv := float64(base.TIAProbes[k])
		if bv == 0 {
			continue // backend unused by this experiment
		}
		cv, ok := cur.TIAProbes[k]
		if !ok {
			out = append(out, finding{Name: "tia_probes." + k, Baseline: bv, Missing: true, Regression: true})
			continue
		}
		out = append(out, finding{
			Name: "tia_probes." + k, Baseline: bv, Current: float64(cv),
			Tol: opt.CountTol, Regression: regressed(bv, float64(cv), opt.CountTol),
		})
	}
	return out
}
