package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tartree/internal/lbsn"
)

// Run shape. One run of one workload sets the fleet up `reps` times (timed;
// the last fleet stays), warms it up, and drives `reps` closed-loop windows
// and then `reps` open-loop windows at it. Every reported value is the median
// of its `reps` samples. -seconds is the measured time of the whole run: one
// closed window lasts seconds×closedShare/reps, one open window
// seconds×(1−closedShare)/reps. The set-up is repeated because the driver
// gates setup_s like any other metric and one sample of a 5 s build is not a
// steady number.
const (
	reps        = 3
	closedShare = 0.5
	// maxClients caps the closed-loop client count C = min(nproc, maxClients).
	maxClients = 4
	// maxInFlight bounds the open loop: a request that finds this many still
	// unanswered is dropped and counted as failed (the backlog is growing).
	maxInFlight = 256
	// A window is flagged saturated when the generator's p99 lateness passes
	// lateLimit or fewer than minCompleted of the due requests completed.
	lateLimit    = 50 * time.Millisecond
	minCompleted = 0.98
	// loadgenCPULimit flags an open window in which the harness itself took
	// more than this share of the machine's CPU time (window × nproc): it
	// then competes with the servers it measures.
	loadgenCPULimit = 0.40
)

// Query parameters of Section 8: k and α0 are fixed, the interval length is
// 2^U{0..9} days.
const (
	queryK      = 10
	queryAlpha0 = 0.3
	maxLenExp   = 9
)

// hotPool and hotZipfS define the repeating traffic: Zipf(s) ranks over a
// pool whose answers fit the server's result cache many times over.
const (
	hotPool  = 256
	hotZipfS = 1.1
)

// Ingest traffic of durable-mixed: batches per second and check-ins per
// batch, always on from warm-up to the end of the open window.
const (
	ingestRate  = 10.0
	ingestBatch = 20
)

type topology int

const (
	topoSingle  topology = iota // one tarserve, default flags
	topoDurable                 // one tarserve -wal-dir (fsync on)
	topoSharded                 // coordinator + 2 shards
)

// numShards is the shard count of topoSharded.
const numShards = 2

// workload is one traffic mix on one topology. The names are fixed: later
// issues cite them. rate is the open-loop query rate, about a third of the
// closed-loop capacity measured on the seed commit at 2 cores.
type workload struct {
	name string
	topo topology
	hot  bool    // draw queries from the Zipf pool instead of all-distinct
	rate float64 // open-loop queries per second
}

var workloads = []workload{
	{name: "single-distinct", topo: topoSingle, rate: 200},
	{name: "single-hot", topo: topoSingle, hot: true, rate: 1500},
	{name: "durable-mixed", topo: topoDurable, hot: true, rate: 150},
	{name: "sharded-distinct", topo: topoSharded, rate: 120},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// dataSpec is the data set of every workload: GW at scale 1 (1.28 M raw
// locations, 14 519 indexed POIs, a height-3 tree).
func dataSpec() lbsn.Spec { return lbsn.GW }

// metricDef mirrors one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the harness reads: the metric names
// it must print and the bounds -compare applies.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of output for one run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
