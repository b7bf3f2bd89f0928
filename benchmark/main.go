// Command benchmark is the repository's end-to-end ruler: it spawns real
// tarserve fleets on loopback, drives them over HTTP from one process, checks
// every answer against the Section 3.2 sequential scan, and prints each
// metric by name with its unit. BENCHMARK.json at the repository root names
// the workloads and metrics and fixes the regression bounds; README.md in
// this directory explains the run shape and what each number is for.
//
//	go run ./benchmark -workload single-hot -seed 1 -seconds 9 -trace 0   # one run, the driver's form
//	go run ./benchmark -seed 1                  # every workload, one JSON document
//	go run ./benchmark -seed 1 -trace 1         # ... plus the traced run's per-layer numbers
//	go run ./benchmark -seed 1 -repeat 2        # two sets, written to benchmark/out/suite_<i>.json
//	go run ./benchmark -compare a.json b.json   # gate b against a with BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the driver's one-line result (default: every workload, one document)")
		seed    = flag.Int64("seed", 1, "seed of the request streams")
		seconds = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics and writing the span file")
		repeat  = flag.Int("repeat", 1, "run the whole suite this many times, writing benchmark/out/suite_<i>.json")
		compare = flag.Bool("compare", false, "compare two suite documents (arguments: a.json b.json) with BENCHMARK.json's bounds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *repeat, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, repeat int, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	man, err := loadManifest(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two suite documents")
		}
		return compareFiles(man, args[0], args[1], os.Stdout)
	}
	if seconds <= 0 {
		seconds = man.RunSeconds
	}
	// The first signal cancels the run: windows end, deferred teardowns stop
	// every fleet and remove its scratch directories.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := newConfig(ctx, root, seed, seconds, os.Stderr)
	if err != nil {
		return err
	}
	w, err := newWorld(cfg.spec)
	if err != nil {
		return err
	}
	if name != "" {
		wl, err := workloadByName(name)
		if err != nil {
			return err
		}
		out, err := runOne(ctx, cfg, wl, w, trace == 1)
		if err != nil {
			return err
		}
		return printLine(os.Stdout, out.result)
	}
	for i := 0; i < repeat; i++ {
		doc, err := runSuite(ctx, cfg, w, trace == 1)
		if err != nil {
			return err
		}
		if repeat == 1 {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("suite_%d.json", i))
		if err := writeJSON(path, doc); err != nil {
			return err
		}
		fmt.Println(path)
	}
	return nil
}

// warmup is the discarded closed-loop time at the start of each repetition:
// connections open, the servers' heaps and page buffers reach their working
// size, and the hot pool (256 queries) lands in the result cache.
const warmup = 2 * time.Second

func newConfig(ctx context.Context, root string, seed int64, seconds float64, log io.Writer) (*config, error) {
	cfg := &config{
		outDir:  filepath.Join(root, "benchmark", "out"),
		spec:    dataSpec(),
		scale:   1,
		seed:    seed,
		seconds: seconds,
		warmup:  warmup,
		clients: min(runtime.NumCPU(), maxClients),
		log:     log,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	cfg.bin, err = buildServer(ctx, root, cfg.outDir)
	return cfg, err
}

// runOne is one run of one workload: the timed run, or the traced one.
func runOne(ctx context.Context, cfg *config, wl workload, w *world, traced bool) (*outcome, error) {
	// The driver allows a run 180 s; a server that never becomes ready must
	// fail well inside that.
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	var (
		out *outcome
		err error
	)
	if traced {
		out, err = measureTraced(ctx, cfg, wl, w)
	} else {
		out, err = measure(ctx, cfg, wl, w)
	}
	if err != nil {
		return nil, err
	}
	mode := "timed"
	if traced {
		mode = "traced"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, wl.name, mode+".json"), out); err != nil {
		return nil, err
	}
	return out, nil
}

// printLine writes the contract's result as one line.
func printLine(w io.Writer, r result) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
