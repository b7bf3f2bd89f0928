package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"tartree/internal/batch"
	"tartree/internal/core"
	"tartree/internal/costmodel"
	"tartree/internal/lbsn"
	"tartree/internal/mwa"
	"tartree/internal/powerlaw"
	"tartree/internal/tia"
)

// effectiveFanout is the classic 69% node utilization (Theodoridis &
// Sellis) of the default 3-D node, which the cost analysis assumes.
var effectiveFanout = 0.69 * float64(core.CapacityFor(defaultNodeSize, 3))

// table4 reports the generated data set statistics next to the paper's
// calibration targets (Table 4).
func table4(r *run, env *dataEnv) error {
	t := r.table("Table 4: data sets (generated at the configured scale vs paper targets at scale 1)",
		"name", "scale", "locations", "check-ins", "paper locations", "paper check-ins", "effective POIs")
	spec, err := lbsn.SpecByName(env.name)
	if err != nil {
		return err
	}
	eff := 0
	for i := range env.POIs {
		if env.POIs[i].Total() >= spec.MinEffective {
			eff++
		}
	}
	t.add(env.name, f2(env.scale), len(env.POIs), env.TotalCheckIns(), spec.Locations, spec.CheckIns, eff)
	return nil
}

// table2 fits a discrete power law to the per-POI check-in totals of each
// data set and reports n, β̂, x̂min and the bootstrap p-value (Table 2).
func table2(r *run, env *dataEnv) error {
	t := r.table("Table 2: power-law fitting of per-POI check-in totals",
		"data", "n", "beta-hat", "xmin-hat", "p-value", "paper beta", "paper xmin")
	totals := env.Totals()
	fit, err := powerlaw.Estimate(totals, powerlaw.FitOptions{})
	if err != nil {
		return err
	}
	p, err := powerlaw.PValue(totals, fit, 50, rand.New(rand.NewSource(r.Seed+7)))
	if err != nil {
		return err
	}
	t.add(env.name, fit.N, f2(fit.Beta), fit.Xmin, f2(p), f2(env.Spec.Beta), env.Spec.Xmin)
	return nil
}

// classLayers builds cost-model layers from the aggregate values of every
// indexed POI over a query-interval class: the empirical body below the
// fitted x̂min plus the fitted power-law tail, the paper's modelling choice
// in Section 6.1.
func classLayers(aggs []int64) ([]costmodel.Layer, int64) {
	var maxAgg int64 = 1
	var nonzero []int64
	for _, a := range aggs {
		if a > maxAgg {
			maxAgg = a
		}
		if a > 0 {
			nonzero = append(nonzero, a)
		}
	}
	empirical := costmodel.EmpiricalLayers(aggs)
	fit, err := powerlaw.Estimate(nonzero, powerlaw.FitOptions{})
	if err != nil {
		return empirical, maxAgg
	}
	var layers []costmodel.Layer
	for _, l := range empirical {
		if l.X < fit.Xmin {
			layers = append(layers, l)
		}
	}
	tail, err := costmodel.PowerLawLayers(float64(fit.NTail), fit.Beta, fit.Xmin, maxAgg, 0)
	if err != nil {
		return empirical, maxAgg
	}
	layers = append(layers, tail...)
	return layers, maxAgg
}

// estimateForQueries runs the Section 6 cost model per interval-length
// class and returns the query-weighted mean estimated f(pk) and leaf node
// accesses. distScale is costmodel.Params.DistScale (0 selects √2).
func estimateForQueries(tr *core.Tree, queries []core.Query, k int, alpha0, distScale float64) (float64, float64, error) {
	type class struct {
		n  int
		iv tia.Interval
	}
	classes := map[int64]*class{}
	for _, q := range queries {
		l := q.Iq.End - q.Iq.Start
		if c, ok := classes[l]; ok {
			c.n++
		} else {
			classes[l] = &class{n: 1, iv: q.Iq}
		}
	}
	var ids []int64
	tr.POIs(func(p core.POI, total int64) bool { ids = append(ids, p.ID); return true })
	var fkSum, naSum float64
	for _, c := range classes {
		aggs := make([]int64, 0, len(ids))
		for _, id := range ids {
			a, err := tr.AggregateMirror(id, c.iv)
			if err != nil {
				return 0, 0, err
			}
			aggs = append(aggs, a)
		}
		layers, maxAgg := classLayers(aggs)
		p := costmodel.Params{
			Alpha0:    alpha0,
			K:         k,
			Fanout:    effectiveFanout,
			MaxAgg:    maxAgg,
			Layers:    layers,
			DistScale: distScale,
		}
		fk, na, err := p.Estimate()
		if err != nil {
			return 0, 0, err
		}
		fkSum += fk * float64(c.n)
		naSum += na * float64(c.n)
	}
	n := float64(len(queries))
	return fkSum / n, naSum / n, nil
}

// costValidation drives Figures 6 and 7: the measured f(pk) and leaf
// accesses of the TAR-tree against the Section 6 estimates, per point.
func costValidation(title string, points []point) func(*run, *dataEnv) error {
	return func(r *run, env *dataEnv) error {
		tr, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D})
		if err != nil {
			return err
		}
		t := r.table(fmt.Sprintf("%s (%s)", title, env.name),
			"k", "alpha0", "measured f(pk)", "estimated f(pk)", "measured leaf NA", "estimated leaf NA")
		for _, pt := range points {
			pt = pt.withDefaults()
			queries := env.Queries(r.Queries, pt.k, pt.alpha, r.Seed+int64(pt.k*1000)+int64(pt.alpha*100))
			m, err := r.measure("TAR-tree", tr, queries, nil)
			if err != nil {
				return err
			}
			estFk, estNA, err := estimateForQueries(tr, queries, pt.k, pt.alpha, 0)
			if err != nil {
				return err
			}
			t.add(pt.k, f2(pt.alpha), m.meanFk(), f3(estFk),
				m.mean(int64(m.work.LeafAccesses)), f1(estNA))
		}
		return nil
	}
}

// sweepTable is the table every per-method sweep fills: one row per (point,
// method) with the paper's two numbers.
func (r *run) sweepTable(title, axis string, env *dataEnv) *Table {
	return r.table(fmt.Sprintf("%s (%s)", title, env.name), axis, "method", "CPU time (ms)", "node accesses")
}

// methodSweep drives Figures 8–12: the four methods measured on the same
// batch at every point of one axis. The methods are rebuilt only when a
// point changes what is indexed.
func methodSweep(title, axis string, points []point) func(*run, *dataEnv) error {
	return func(r *run, env *dataEnv) error {
		t := r.sweepTable(title, axis, env)
		var methods []method
		var built point
		for _, pt := range points {
			pt = pt.withDefaults()
			cutoff, end := int64(0), env.Spec.End
			if pt.cutoffFrac > 0 {
				cutoff = env.SnapshotEnd(pt.cutoffFrac)
				end = cutoff
			}
			if methods == nil || pt.nodeSize != built.nodeSize || pt.epoch != built.epoch || pt.cutoffFrac != built.cutoffFrac {
				var err error
				if methods, err = env.buildAll(pt.nodeSize, pt.epoch, cutoff); err != nil {
					return err
				}
				built = pt
			}
			queries := env.QueriesUntil(r.Queries, pt.k, pt.alpha, r.Seed, end)
			for _, mt := range methods {
				m, err := r.measure(mt.name, mt.q, queries, nil)
				if err != nil {
					return err
				}
				na := "-" // the baseline scans; it reads no R-tree node
				if mt.name != "baseline" {
					na = m.mean(m.nodeAccesses())
				}
				t.add(pt.label, mt.name, m.meanMS(), na)
			}
		}
		return nil
	}
}

// mwaQuerier presents a minimum-weight-adjustment algorithm as a Querier
// over its tree, so measure times it like any other method.
type mwaQuerier struct {
	tr  *core.Tree
	alg func(*core.Tree, core.Query) ([]core.Result, mwa.Adjustment, core.QueryStats, error)
}

func (a mwaQuerier) QueryCtx(_ context.Context, q core.Query, _ *core.QueryOpts) ([]core.Result, core.QueryStats, error) {
	res, _, stats, err := a.alg(a.tr, q)
	return res, stats, err
}

// mwaSweep drives Figures 13 and 14: the two MWA algorithms per point.
func mwaSweep(title, axis string, points []point) func(*run, *dataEnv) error {
	return func(r *run, env *dataEnv) error {
		tr, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D})
		if err != nil {
			return err
		}
		t := r.sweepTable(title, axis, env)
		nq := r.Queries
		if nq > 20 {
			nq = 20 // enumerating is deliberately expensive; 20 queries suffice
		}
		for _, pt := range points {
			pt = pt.withDefaults()
			if pt.k >= tr.Len() {
				continue
			}
			queries := env.Queries(nq, pt.k, pt.alpha, r.Seed)
			for _, mt := range []method{
				{"enumerating", mwaQuerier{tr, mwa.Enumerating}},
				{"pruning", mwaQuerier{tr, mwa.Pruning}},
			} {
				m, err := r.measure(mt.name, mt.q, queries, nil)
				if err != nil {
					return err
				}
				t.add(pt.label, mt.name, m.meanMS(), m.mean(m.nodeAccesses()))
			}
		}
		return nil
	}
}

// collectiveSweep drives Figures 15 and 16: the same batch answered one
// query at a time and by the collective scheme of Section 7.2. The TIAs run
// unbuffered to expose the effect of memory buffering, per the paper's
// setup, so node accesses include the TIA page reads that reached the disk.
func collectiveSweep(title, axis string, points []point) func(*run, *dataEnv) error {
	return func(r *run, env *dataEnv) error {
		tr, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D, TIA: tia.NewBTreeFactory(defaultNodeSize, 0)})
		if err != nil {
			return err
		}
		t := r.sweepTable(title, axis, env)
		for _, pt := range points {
			pt = pt.withDefaults()
			queries := env.QueriesWithIntervals(pt.batch, pt.k, pt.alpha, 13, env.QueryIntervals(pt.types, 11))
			n := float64(len(queries))
			row := func(name string, elapsed time.Duration, work core.QueryStats) {
				t.add(pt.label, name, f3(elapsed.Seconds()*1000/n), f1(float64(int64(work.RTreeAccesses())+work.TIAPhysical)/n))
			}
			m, err := r.measure("individual", tr, queries, nil)
			if err != nil {
				return err
			}
			row("individual", m.elapsed, m.work)
			// The collective scheme answers the batch as a whole — there is no
			// per-query latency to measure, only the one call.
			start := time.Now()
			_, work, err := batch.Process(tr, queries)
			if err != nil {
				return err
			}
			row("collective", time.Since(start), work)
		}
		return nil
	}
}
