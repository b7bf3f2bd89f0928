// Command tarbench regenerates the tables and figures of the paper's
// evaluation (Section 8). Each experiment prints the same rows/series the
// paper plots, computed on the calibrated synthetic LBSN data sets.
//
// Usage:
//
//	tarbench -exp fig9                  # one experiment, default datasets
//	tarbench -exp all -datasets GW,GS   # the paper's evaluation and the infrastructure experiments
//	tarbench -exp ablations             # the ablations
//	tarbench -exp fig6 -scale 1 -queries 1000   # paper-scale run
//	tarbench -exp fig9 -json .          # also write BENCH_fig9.json
//
// With -json DIR each experiment additionally writes a machine-readable
// BENCH_<exp>.json snapshot: run metadata, the tables, the per-method
// query-latency histograms, and the per-backend TIA probe totals.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tartree/internal/bench"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

// expUsage renders the -exp help from the experiment table: the ids of each
// group, and what the two selections run.
func expUsage() string {
	ids := map[bench.Group][]string{}
	var groups []bench.Group // in table order
	for _, e := range bench.Experiments() {
		if ids[e.Group] == nil {
			groups = append(groups, e.Group)
		}
		ids[e.Group] = append(ids[e.Group], e.ID)
	}
	var b strings.Builder
	b.WriteString("experiment id")
	for _, g := range groups {
		fmt.Fprintf(&b, "; %s: %s", g, strings.Join(ids[g], ", "))
	}
	fmt.Fprintf(&b, "; 'all' runs the %s and %s groups, 'ablations' the %s group", bench.Paper, bench.Infra, bench.Ablation)
	return b.String()
}

// selectIDs resolves -exp against the experiment table.
func selectIDs(exp string) ([]string, error) {
	var ids []string
	for _, e := range bench.Experiments() {
		switch {
		case exp == e.ID:
			return []string{e.ID}, nil
		case exp == "all" && e.Group != bench.Ablation, exp == "ablations" && e.Group == bench.Ablation:
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	return ids, nil
}

func main() {
	var (
		exp      = flag.String("exp", "all", expUsage())
		datasets = flag.String("datasets", "", "comma-separated data sets (NYC,LA,GW,GS); default GW,GS as in the paper")
		scale    = flag.Float64("scale", 0, "data set scale in (0,1]; 0 = the experiment's default, else a per-dataset default")
		queries  = flag.Int("queries", 0, "queries per measurement; 0 = the experiment's default, else 200 (paper: 1000)")
		seed     = flag.Int64("seed", 1, "random seed for query generation")
		jsonDir  = flag.String("json", "", "also write a BENCH_<exp>.json metrics snapshot into this directory")
		trcOut   = flag.String("trace-out", "", "append per-batch span traces to this file as Chrome trace_event JSON")
		expOut   = flag.String("explain-out", "", "append per-query explain objects (calibration experiment) to this file as JSON lines")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Queries: *queries, Seed: *seed}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
		os.Exit(2)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *expOut != "" {
		if dir := filepath.Dir(*expOut); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
				os.Exit(1)
			}
		}
		f, err := os.OpenFile(*expOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.ExplainOut = f
	}
	var traceSink *obs.FileTraceSink
	if *trcOut != "" {
		if dir := filepath.Dir(*trcOut); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
				os.Exit(1)
			}
		}
		f, err := os.OpenFile(*trcOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		traceSink = obs.NewFileTraceSink(f)
		cfg.TraceSink = traceSink
	}

	ids, err := selectIDs(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
		os.Exit(2)
	}
	for _, id := range ids {
		if *jsonDir != "" {
			cfg.Metrics = obs.NewRegistry()
		}
		snap, err := runExperiment(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tarbench: %v\n", err)
			os.Exit(1)
		}
		for i := range snap.Tables {
			snap.Tables[i].Print(os.Stdout)
		}
		fmt.Printf("\n[%s completed in %v]\n", id, time.Duration(snap.ElapsedMS)*time.Millisecond)
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+id+".json")
			if err := snap.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "tarbench: %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Printf("[snapshot written to %s]\n", path)
		}
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "tarbench: trace export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[span traces appended to %s]\n", *trcOut)
	}
}

// benchSnapshot is the BENCH_<exp>.json document: everything needed to
// compare two runs without re-parsing the printed tables.
type benchSnapshot struct {
	Experiment string        `json:"experiment"`
	StartedAt  time.Time     `json:"started_at"`
	ElapsedMS  int64         `json:"elapsed_ms"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Config     configMeta    `json:"config"`
	Tables     []bench.Table `json:"tables"`
	// Metrics is the obs registry snapshot: the per-method
	// bench_query_latency_seconds histograms with their quantiles.
	Metrics map[string]any `json:"metrics"`
	// TIAProbes is the per-backend probe total of this experiment alone.
	TIAProbes map[string]int64 `json:"tia_probes"`
}

type configMeta struct {
	Datasets []string `json:"datasets,omitempty"`
	Scale    float64  `json:"scale"`
	Queries  int      `json:"queries"`
	Seed     int64    `json:"seed"`
}

// tiaProbes reads the process-wide per-backend probe totals.
func tiaProbes() map[string]int64 {
	probes := make(map[string]int64, len(tia.BackendKinds()))
	for _, k := range tia.BackendKinds() {
		probes[k.String()] = tia.ProbeCount(k)
	}
	return probes
}

// runExperiment runs one experiment and assembles its snapshot. The probe
// totals are process-wide counters, so the experiment's own share is the
// difference across the run — under -exp all each snapshot then carries what
// a solo run of that experiment would.
func runExperiment(id string, cfg bench.Config) (*benchSnapshot, error) {
	start := time.Now()
	before := tiaProbes()
	tables, err := bench.Run(id, cfg)
	if err != nil {
		return nil, err
	}
	probes := tiaProbes()
	for k := range probes {
		probes[k] -= before[k]
	}
	elapsed := time.Since(start)
	snap := &benchSnapshot{
		Experiment: id,
		StartedAt:  start.UTC(),
		ElapsedMS:  elapsed.Milliseconds(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Config: configMeta{
			Datasets: cfg.Datasets,
			Scale:    cfg.Scale,
			Queries:  cfg.Queries,
			Seed:     cfg.Seed,
		},
		Tables:    tables,
		TIAProbes: probes,
	}
	if cfg.Metrics != nil {
		snap.Metrics = cfg.Metrics.Snapshot()
	}
	return snap, nil
}

func (snap *benchSnapshot) write(path string) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
