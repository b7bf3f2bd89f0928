package bench

import (
	"bytes"
	"fmt"
	"time"

	"tartree/internal/core"
	"tartree/internal/lbsn"
)

// startupMinSpeedup is the gate on the largest data-set size, the point of
// the flat format: section reads must beat the gob decode + per-POI insert +
// bulk rebuild of the legacy path by at least this factor.
const startupMinSpeedup = 5.0

// startupExp measures cold-start cost: for each data-set size (the scales of
// its table row) it saves the built TAR-tree as a legacy gob (v2) image and
// as a flat snapshot-v3 image, then times loading each with fresh disk
// B+-tree TIAs (best of three, so a stray scheduling hiccup cannot fail the
// gate). Three correctness gates ride along: the v3 load must arrive with
// the compiled layout installed, dropping that layout and letting the next
// query recompile it — what the first structural mutation after a restart
// does — must return identical answers with identical work, and the v2- and
// v3-loaded trees must agree on every query's (POI, aggregate) ranking.
//
// The exported counters depend only on the data set — never on timing — so
// benchdiff can gate on them:
//
//	bench_startup_pois_total{scale="..."}
//	bench_startup_v2_bytes_total{scale="..."}
//	bench_startup_v3_bytes_total{scale="..."}
//	bench_startup_node_accesses_total{scale="..."}
//	bench_startup_queries_total
func startupExp(r *run, env *dataEnv) error {
	t := r.table(fmt.Sprintf("Startup: cold load, gob-v2 rebuild vs flat snapshot-v3 (%s)", env.name),
		"scale", "POIs", "v2 KB", "v3 KB", "v2 load (ms)", "v3 load (ms)", "speedup", "node accesses")
	scale := f2(env.scale)
	tr, err := env.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: defaultNodeSize})
	if err != nil {
		return err
	}
	var v2, v3 bytes.Buffer
	if err := tr.SaveSnapshot(&v2); err != nil {
		return err
	}
	if err := tr.SaveSnapshotV3(&v3); err != nil {
		return err
	}

	// Timed loads, best of three, each against a fresh TIA factory so no
	// page-store state survives from the previous attempt.
	load := func(image []byte) (*core.Tree, time.Duration, error) {
		var lt *core.Tree
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			var err error
			if lt, err = core.LoadSnapshot(bytes.NewReader(image), paperTIA(defaultNodeSize)); err != nil {
				return nil, 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return lt, best, nil
	}
	fromV2, timeV2, err := load(v2.Bytes())
	if err != nil {
		return fmt.Errorf("scale %s: v2 load: %w", scale, err)
	}
	fromV3, timeV3, err := load(v3.Bytes())
	if err != nil {
		return fmt.Errorf("scale %s: v3 load: %w", scale, err)
	}
	if !fromV3.Frozen() {
		return fmt.Errorf("scale %s: v3 load did not install the compiled layout", scale)
	}

	// The batches run uncached (these trees have no cache, which would hide
	// the traversal being compared).
	queries := env.Queries(r.Queries, defaultK, defaultAlpha, r.Seed+29)

	// Gate: the layout recompiled from the thawed pointer tree must be the
	// layout read from disk — same answers, same work — on the very tree
	// the server restarts into.
	restored, err := r.measure("", fromV3, queries, nil)
	if err != nil {
		return err
	}
	fromV3.Unfreeze()
	recompiled, err := r.measure("", fromV3, queries, nil)
	if err != nil {
		return err
	}
	if err := sameBatch(exact, "scale "+scale+": restored vs recompiled layout", recompiled, restored); err != nil {
		return err
	}
	if rw, cw := restored.fingerprint(), recompiled.fingerprint(); rw != cw {
		return fmt.Errorf("scale %s: restored-layout work %v != recompiled-layout work %v", scale, rw, cw)
	}

	// Gate: both formats restore the same index. The v2 path bulk-rebuilds,
	// so tree shapes (and tie order) may differ; identity is on answers.
	fromGob, err := r.measure("", fromV2, queries, nil)
	if err != nil {
		return err
	}
	if err := sameBatch(asSet, "scale "+scale+": v2 vs v3", fromGob, restored); err != nil {
		return err
	}

	speedup := float64(timeV2) / float64(timeV3)
	if env.lastScale && speedup < startupMinSpeedup {
		return fmt.Errorf("scale %s: v3 load only %.1f× faster than v2 (gate: ≥%.0f×)", scale, speedup, startupMinSpeedup)
	}

	r.count("bench_startup_pois_total", int64(fromV3.Len()), "scale", scale)
	r.count("bench_startup_v2_bytes_total", int64(v2.Len()), "scale", scale)
	r.count("bench_startup_v3_bytes_total", int64(v3.Len()), "scale", scale)
	r.count("bench_startup_node_accesses_total", restored.nodeAccesses(), "scale", scale)
	r.count("bench_startup_queries_total", int64(len(queries)))
	t.add(scale, fromV3.Len(), f1(float64(v2.Len())/1024), f1(float64(v3.Len())/1024),
		f3(timeV2.Seconds()*1000), f3(timeV3.Seconds()*1000), fmt.Sprintf("%.1f×", speedup), restored.nodeAccesses())
	return nil
}
