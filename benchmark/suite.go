package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// suiteDoc is one set of runs: every workload timed, and traced when asked.
// It is what -repeat writes, -compare reads, and baseline/seed.json holds.
type suiteDoc struct {
	Env     map[string]any      `json:"env"`
	Seed    int64               `json:"seed"`
	Seconds float64             `json:"seconds"`
	Timed   map[string]*outcome `json:"timed"`
	Traced  map[string]*outcome `json:"traced,omitempty"`
}

// environment records what the numbers were measured on.
func environment(cfg *config) map[string]any {
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"GOMAXPROCS": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"clients":    cfg.clients,
		"dataset":    fmt.Sprintf("%s scale %g", cfg.spec.Name, cfg.scale),
	}
}

func runSuite(ctx context.Context, cfg *config, w *world, traced bool) (*suiteDoc, error) {
	doc := &suiteDoc{
		Env:     environment(cfg),
		Seed:    cfg.seed,
		Seconds: cfg.seconds,
		Timed:   map[string]*outcome{},
	}
	for _, wl := range workloads {
		out, err := runOne(ctx, cfg, wl, w, false)
		if err != nil {
			return nil, err
		}
		doc.Timed[wl.name] = out
	}
	if traced {
		doc.Traced = map[string]*outcome{}
		for _, wl := range workloads {
			out, err := runOne(ctx, cfg, wl, w, true)
			if err != nil {
				return nil, err
			}
			doc.Traced[wl.name] = out
		}
	}
	return doc, nil
}

func readSuite(path string) (*suiteDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc suiteDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// errRegression is what -compare exits non-zero with.
type errRegression struct{ lines []string }

func (e *errRegression) Error() string {
	return fmt.Sprintf("%d end-to-end metric(s) beyond their bound:\n  %s", len(e.lines), strings.Join(e.lines, "\n  "))
}

// compareFiles gates suite b against suite a: every end-to-end metric of
// every workload may be worse by at most its bound. It also prints each
// pair's relative distance, the number a bound is re-derived from.
func compareFiles(man *manifest, pathA, pathB string, w io.Writer) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	return compareSuites(man, a, b, w)
}

func compareSuites(man *manifest, a, b *suiteDoc, w io.Writer) error {
	var bad []string
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range man.Workloads {
		ra, rb := a.Timed[wl.Name], b.Timed[wl.Name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from one document", wl.Name)
		}
		for _, m := range man.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is missing from one document", wl.Name, m.Name)
			}
			worse := (vb.Value - va.Value) / math.Abs(va.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "%-18s %-26s %14.4f %14.4f %+8.1f%% %6.0f%%\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound)
			if worse > m.Bound {
				bad = append(bad, fmt.Sprintf("%s %s: %.4f → %.4f %s, %.1f%% worse (bound %.0f%%)",
					wl.Name, m.Name, va.Value, vb.Value, m.Unit, 100*worse, 100*m.Bound))
			}
		}
		if rb.Failed > 0 || !rb.Correct {
			bad = append(bad, fmt.Sprintf("%s: %d of %d operations failed, correct=%v", wl.Name, rb.Failed, rb.Attempted, rb.Correct))
		}
	}
	if len(bad) > 0 {
		return &errRegression{lines: bad}
	}
	return nil
}
