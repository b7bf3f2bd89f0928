package bench

import (
	"fmt"
	"math"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/tia"
)

// The ablations go beyond the paper's figures: each isolates one design
// choice called out in DESIGN.md and measures its effect under the default
// workload (k = 10, α0 = 0.3).

// tiaBackends lists the TIA storage engines in cost order: the in-memory
// slice (free), the disk B+-tree (the default) and the multi-version
// B-tree the paper names.
var tiaBackends = []struct {
	name string
	fac  func() tia.Factory
}{
	{"mem", func() tia.Factory { return tia.NewMemFactory() }},
	{"btree", func() tia.Factory { return paperTIA(defaultNodeSize) }},
	{"mvbt", func() tia.Factory { return tia.NewMVBTFactory(defaultNodeSize, 10) }},
}

// ablationBackend compares the TIA backends. The choice does not affect
// correctness or R-tree node accesses — only TIA page traffic and CPU time.
func ablationBackend(r *run, env *dataEnv) error {
	t := r.table(fmt.Sprintf("Ablation: TIA backend (%s)", env.name),
		"backend", "CPU time (ms)", "node accesses", "TIA page reads")
	queries := env.Queries(r.Queries, defaultK, defaultAlpha, r.Seed)
	for _, b := range tiaBackends {
		tr, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D, TIA: b.fac()})
		if err != nil {
			return err
		}
		m, err := r.measure("TAR-tree/"+b.name, tr, queries, nil)
		if err != nil {
			return err
		}
		t.add(b.name, m.meanMS(), m.mean(m.nodeAccesses()), m.mean(m.work.TIAAccesses))
	}
	return nil
}

// ablationBuffer sweeps the per-TIA buffer pool size. The paper fixes it at
// 10 slots; this shows what that buys in physical page reads.
func ablationBuffer(r *run, env *dataEnv) error {
	t := r.table(fmt.Sprintf("Ablation: TIA buffer slots (%s)", env.name),
		"slots", "CPU time (ms)", "TIA logical reads", "TIA physical reads")
	queries := env.Queries(r.Queries, defaultK, defaultAlpha, r.Seed)
	for _, slots := range []int{0, 1, 10, 100} {
		tr, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D, TIA: tia.NewBTreeFactory(defaultNodeSize, slots)})
		if err != nil {
			return err
		}
		m, err := r.measure(fmt.Sprintf("TAR-tree/%d slots", slots), tr, queries, nil)
		if err != nil {
			return err
		}
		t.add(slots, m.meanMS(), m.mean(m.work.TIAAccesses), m.mean(m.work.TIAPhysical))
	}
	return nil
}

// ablationReinsert isolates the R* forced-reinsertion heuristic: the same
// TAR-tree built with and without it, plus an STR bulk-loaded tree as the
// packing upper bound.
func ablationReinsert(r *run, env *dataEnv) error {
	t := r.table(fmt.Sprintf("Ablation: construction method (%s)", env.name),
		"construction", "nodes", "CPU time (ms)", "node accesses")
	queries := env.Queries(r.Queries, defaultK, defaultAlpha, r.Seed)
	build := func() (*core.Tree, error) { return env.Build(lbsn.BuildOptions{Grouping: core.TAR3D}) }
	for _, v := range []struct {
		name  string
		build func() (*core.Tree, error)
	}{
		{"R* with reinsertion", build},
		{"R* without reinsertion", env.buildNoReinsert},
		{"STR bulk rebuild", func() (*core.Tree, error) {
			tr, err := build()
			if err != nil {
				return nil, err
			}
			return tr, tr.RebuildBulk()
		}},
	} {
		tr, err := v.build()
		if err != nil {
			return err
		}
		leaves, internals := tr.NodeCount()
		m, err := r.measure("TAR-tree/"+v.name, tr, queries, nil)
		if err != nil {
			return err
		}
		t.add(v.name, leaves+internals, m.meanMS(), m.mean(m.nodeAccesses()))
	}
	return nil
}

// buildNoReinsert mirrors Dataset.Build with forced reinsertion disabled.
func (e *dataEnv) buildNoReinsert() (*core.Tree, error) {
	tr, err := core.NewTree(core.Options{
		World:           e.World,
		Grouping:        core.TAR3D,
		EpochStart:      e.Spec.Start,
		EpochLength:     defaultEpoch,
		TIA:             paperTIA(defaultNodeSize), // as dataEnv.Build
		DisableReinsert: true,
	})
	if err != nil {
		return nil, err
	}
	e.indexed(defaultEpoch, 0, func(p core.POI, hist []tia.Record) {
		if err == nil {
			err = tr.InsertPOI(p, hist)
		}
	})
	return tr, err
}

// ablationDistScale compares the cost model's estimated f(pk) with and
// without the √2 distance-scale correction (DESIGN.md documents why the
// correction is needed when distances are normalized by the diagonal).
func ablationDistScale(r *run, env *dataEnv) error {
	tr, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D})
	if err != nil {
		return err
	}
	t := r.table(fmt.Sprintf("Ablation: cost-model distance scale (%s)", env.name),
		"k", "measured f(pk)", "estimated (scale sqrt2)", "estimated (scale 1)")
	for _, k := range []int{1, 10, 100} {
		queries := env.Queries(r.Queries, k, defaultAlpha, r.Seed)
		m, err := r.measure("TAR-tree", tr, queries, nil)
		if err != nil {
			return err
		}
		row := []any{k, m.meanFk()}
		for _, scale := range []float64{math.Sqrt2, 1} {
			fk, _, err := estimateForQueries(tr, queries, k, defaultAlpha, scale)
			if err != nil {
				return err
			}
			row = append(row, f3(fk))
		}
		t.add(row...)
	}
	return nil
}
