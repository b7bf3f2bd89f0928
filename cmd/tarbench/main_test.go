package main

import (
	"reflect"
	"testing"

	"tartree/internal/bench"
	"tartree/internal/obs"
)

func tiny() bench.Config {
	return bench.Config{Datasets: []string{"GS"}, Scale: 0.03, Queries: 5, Seed: 1}
}

// TestProbesPerExperiment: tia.ProbeCount is a process-wide total, so under
// -exp all a snapshot used to carry the probes of every experiment before it
// and benchdiff reported a false tia_probes regression. Each snapshot must
// hold what a solo run of its experiment does, wherever it runs in the
// sequence.
func TestProbesPerExperiment(t *testing.T) {
	run := func(id string) map[string]int64 {
		t.Helper()
		cfg := tiny()
		cfg.Metrics = obs.NewRegistry()
		snap, err := runExperiment(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return snap.TIAProbes
	}
	smoke, backend := run("smoke"), run("abl-backend")
	if smoke["btree"] == 0 || backend["mvbt"] == 0 {
		t.Fatalf("experiments probed nothing: smoke %v abl-backend %v", smoke, backend)
	}
	if again := run("smoke"); !reflect.DeepEqual(again, smoke) {
		t.Errorf("smoke after abl-backend reports probes %v, alone %v", again, smoke)
	}
	if again := run("abl-backend"); !reflect.DeepEqual(again, backend) {
		t.Errorf("abl-backend after smoke reports probes %v, alone %v", again, backend)
	}
}

// TestSelectIDs: "all" and "ablations" are read off the table's groups and
// together cover it; an unknown id is refused.
func TestSelectIDs(t *testing.T) {
	all, err := selectIDs("all")
	if err != nil {
		t.Fatal(err)
	}
	abl, err := selectIDs("ablations")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(abl) == 0 || len(all)+len(abl) != len(bench.Experiments()) {
		t.Errorf("all=%d ablations=%d of %d experiments", len(all), len(abl), len(bench.Experiments()))
	}
	if one, err := selectIDs(abl[0]); err != nil || len(one) != 1 || one[0] != abl[0] {
		t.Errorf("selectIDs(%q) = %v, %v", abl[0], one, err)
	}
	if _, err := selectIDs("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
