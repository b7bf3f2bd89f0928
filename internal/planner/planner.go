// Package planner turns the Section-6 cost analysis into a query
// optimizer, the use the paper suggests ("the analysis can also be used as
// a cost model for query optimization purposes"): for each kNNTA query it
// estimates the best-first search's node accesses from the aggregate
// distribution of the query's interval class and chooses between the
// TAR-tree and the sequential scan — the scan wins when k approaches the
// data set size or the search region degenerates to most of the space.
package planner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"tartree/internal/core"
	"tartree/internal/costmodel"
	"tartree/internal/obs"
	"tartree/internal/powerlaw"
	"tartree/internal/seqscan"
	"tartree/internal/tia"
)

// Engine names the execution strategy a Plan selects.
type Engine int

const (
	// UseIndex answers with best-first search over the TAR-tree.
	UseIndex Engine = iota
	// UseScan answers with the sequential scan.
	UseScan
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	if e == UseScan {
		return "sequential-scan"
	}
	return "tar-tree"
}

// Plan is the optimizer's decision with its supporting estimates.
type Plan struct {
	Engine Engine
	// EstimatedFk is the predicted ranking score of the kth result.
	EstimatedFk float64
	// EstimatedLeafAccesses is the Section-6.3 leaf node-access estimate
	// NA(α, k); EstimatedNodeAccesses adds the proportional internal
	// accesses and the normalization read — the number the explain pipeline
	// compares against the search's actual node accesses.
	EstimatedLeafAccesses float64
	EstimatedNodeAccesses float64
	// IndexCost and ScanCost are the predicted costs in microseconds when
	// calibrated, otherwise in abstract page-access units.
	IndexCost, ScanCost float64
	// Calibrated reports whether the costs above are in microseconds.
	Calibrated bool
	// Bands is the Section-6.3 estimation detail: one slab of cubic leaf
	// nodes per entry. Empty for the degenerate empty-tree plan.
	Bands []costmodel.Band
}

// Explain converts the plan into the neutral form a core.Explain recorder
// carries, bands included.
func (pl Plan) Explain() *core.ExplainPlan {
	ep := &core.ExplainPlan{
		Engine:                pl.Engine.String(),
		EstimatedFk:           pl.EstimatedFk,
		EstimatedLeafAccesses: pl.EstimatedLeafAccesses,
		EstimatedNodeAccesses: pl.EstimatedNodeAccesses,
		IndexCost:             pl.IndexCost,
		ScanCost:              pl.ScanCost,
		Calibrated:            pl.Calibrated,
	}
	for _, b := range pl.Bands {
		ep.Bands = append(ep.Bands, core.ExplainBand{
			Nodes: b.Count, Side: b.Side, Radius: b.Radius, P: b.P,
		})
	}
	return ep
}

// classStats caches the fitted cost-model layers for one interval length.
type classStats struct {
	layers  []costmodel.Layer
	maxAgg  int64
	builtAt int // tree size when fitted; refitted after significant growth
}

// Planner plans and executes kNNTA queries over one tree. A Planner is
// safe for concurrent use: the class cache and calibration coefficients
// are guarded by an internal mutex, so a server can plan from many
// request goroutines.
type Planner struct {
	tree   *core.Tree
	scan   *seqscan.Scanner // nil on an estimate-only planner (NewEstimator)
	fanout float64

	mu sync.Mutex
	// classes caches per-interval-length statistics.
	classes map[int64]*classStats
	// Calibration coefficients; zero until Calibrate runs.
	usPerAccess float64 // microseconds per estimated index node access
	usPerPOI    float64 // microseconds per scanned POI

	metrics *plannerMetrics // nil until Instrument
}

// New builds a planner for tr, constructing the sequential-scan fallback
// from the tree's own registry.
func New(tr *core.Tree) (*Planner, error) {
	opts := tr.Options()
	scan := seqscan.New(opts.World, opts.Semantics)
	var ferr error
	tr.POIs(func(p core.POI, total int64) bool {
		hist, err := tr.History(p.ID)
		if err != nil {
			ferr = err
			return false
		}
		scan.Add(p, hist)
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	return &Planner{
		tree:    tr,
		scan:    scan,
		fanout:  0.69 * float64(core.CapacityFor(opts.NodeSize, tr.Dims())),
		classes: make(map[int64]*classStats),
	}, nil
}

// NewEstimator builds an estimate-only planner: Plan and Observe work, but
// no sequential-scan engine is materialized — Query always executes the
// tree, with the plan advisory. Servers use it so attaching EXPLAIN does
// not copy every POI history into a second engine.
func NewEstimator(tr *core.Tree) *Planner {
	opts := tr.Options()
	return &Planner{
		tree:    tr,
		fanout:  0.69 * float64(core.CapacityFor(opts.NodeSize, tr.Dims())),
		classes: make(map[int64]*classStats),
	}
}

// plannerMetrics is the planner's bridge into an obs.Registry: the engine
// decision/verdict counters and the signed relative estimate-error
// histograms the calibration dashboards read.
type plannerMetrics struct {
	reg       *obs.Registry
	accessErr *obs.Histogram
	fkErr     *obs.Histogram
}

// estimateErrorBounds buckets the signed relative error (estimated −
// actual) / actual: negative buckets are underestimates, positive
// overestimates.
var estimateErrorBounds = []float64{-5, -2, -1, -0.5, -0.25, -0.1, 0, 0.1, 0.25, 0.5, 1, 2, 5}

// Instrument attaches the planner to a registry, exporting
// tartree_planner_engine_total{engine,verdict} and
// tartree_planner_estimate_error{quantity}. Idempotent per registry (the
// registry getters are); safe to call before or after queries run.
func (p *Planner) Instrument(r *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.metrics = &plannerMetrics{
		reg:       r,
		accessErr: r.Histogram(`tartree_planner_estimate_error{quantity="node_accesses"}`, estimateErrorBounds),
		fkErr:     r.Histogram(`tartree_planner_estimate_error{quantity="fk"}`, estimateErrorBounds),
	}
}

// Verdicts of Observe: how far the Section-6 node-access estimate landed
// from the measured search.
const (
	VerdictOK         = "ok"         // |relative error| ≤ 0.5
	VerdictOver       = "over"       // estimate > 1.5 × actual
	VerdictUnder      = "under"      // estimate < 0.5 × actual
	VerdictUnmeasured = "unmeasured" // scan plan, no explain, or zero actuals
)

// Observe folds one executed plan into the calibration metrics: the engine
// decision with its accuracy verdict, and — when the query ran with an
// explain recorder on the tree engine — the signed relative errors of the
// node-access and f(pk) estimates. A result-cache hit counts as
// unmeasured: the search never ran, so the estimate has no actual to meet.
func (p *Planner) Observe(plan Plan, ex *core.Explain) {
	p.mu.Lock()
	m := p.metrics
	p.mu.Unlock()
	if m == nil {
		return
	}
	verdict := VerdictUnmeasured
	if plan.Engine == UseIndex && ex != nil && !ex.ResultCacheHit {
		if actual := float64(ex.NodeAccesses()); actual > 0 {
			relErr := (plan.EstimatedNodeAccesses - actual) / actual
			m.accessErr.Observe(relErr)
			switch {
			case relErr > 0.5:
				verdict = VerdictOver
			case relErr < -0.5:
				verdict = VerdictUnder
			default:
				verdict = VerdictOK
			}
		}
		if ex.ActualFk > 0 {
			m.fkErr.Observe((plan.EstimatedFk - ex.ActualFk) / ex.ActualFk)
		}
	}
	m.reg.Counter(fmt.Sprintf(`tartree_planner_engine_total{engine=%q,verdict=%q}`,
		plan.Engine.String(), verdict)).Inc()
}

// statsFor returns (building if needed) the layer statistics of the
// query's interval-length class.
func (p *Planner) statsFor(iv tia.Interval) (*classStats, error) {
	length := iv.End - iv.Start
	cs := p.classes[length]
	if cs != nil && p.tree.Len() < cs.builtAt*5/4 {
		return cs, nil
	}
	var aggs []int64
	var ferr error
	p.tree.POIs(func(poi core.POI, total int64) bool {
		a, err := p.tree.AggregateMirror(poi.ID, iv)
		if err != nil {
			ferr = err
			return false
		}
		aggs = append(aggs, a)
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	if len(aggs) == 0 {
		return nil, errors.New("planner: empty tree")
	}
	cs = &classStats{builtAt: p.tree.Len()}
	cs.layers, cs.maxAgg = buildLayers(aggs)
	p.classes[length] = cs
	return cs, nil
}

// buildLayers mirrors the evaluation harness: empirical body below the
// fitted cutoff, power-law tail above it.
func buildLayers(aggs []int64) ([]costmodel.Layer, int64) {
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
	return append(layers, tail...), maxAgg
}

// Plan estimates both engines' costs for q and picks the cheaper.
func (p *Planner) Plan(q core.Query) (Plan, error) {
	if err := q.Validate(); err != nil {
		return Plan{}, err
	}
	n := p.tree.Len()
	if n == 0 {
		return Plan{Engine: UseScan}, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cs, err := p.statsFor(q.Iq)
	if err != nil {
		return Plan{}, err
	}
	cm := costmodel.Params{
		Alpha0: q.Alpha0,
		K:      min(q.K, n),
		Fanout: p.fanout,
		MaxAgg: cs.maxAgg,
		Layers: cs.layers,
	}
	fk, err := cm.EstimateFk()
	if err != nil {
		return Plan{}, err
	}
	leafNA, bands, err := cm.EstimateLeafAccesses(fk)
	if err != nil {
		return Plan{}, err
	}
	// Index cost: estimated leaf accesses plus the proportional internal
	// accesses and the normalization read. Scan cost: one pass over N POIs.
	accesses := leafNA*(1+1/p.fanout) + 2
	pois := float64(n)
	plan := Plan{
		EstimatedFk:           fk,
		EstimatedLeafAccesses: leafNA,
		EstimatedNodeAccesses: accesses,
		Bands:                 bands,
	}
	if p.usPerAccess > 0 && p.usPerPOI > 0 {
		plan.IndexCost = accesses * p.usPerAccess
		plan.ScanCost = pois * p.usPerPOI
		plan.Calibrated = true
	} else {
		// Uncalibrated: compare in page units; a scanned page holds about
		// one node's worth of POIs.
		plan.IndexCost = accesses
		plan.ScanCost = pois / p.fanout
	}
	if plan.IndexCost <= plan.ScanCost {
		plan.Engine = UseIndex
	} else {
		plan.Engine = UseScan
	}
	return plan, nil
}

// Calibrate measures both engines on the given sample queries and derives
// microsecond cost coefficients, turning Plan's comparison from page units
// into predicted wall time.
func (p *Planner) Calibrate(queries []core.Query) error {
	if len(queries) == 0 {
		return errors.New("planner: no calibration queries")
	}
	if p.scan == nil {
		return errors.New("planner: estimate-only planner cannot calibrate")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var idxMicros, estAccesses, scanMicros, scannedPOIs float64
	for _, q := range queries {
		cs, err := p.statsFor(q.Iq)
		if err != nil {
			return err
		}
		cm := costmodel.Params{
			Alpha0: q.Alpha0, K: min(q.K, p.tree.Len()),
			Fanout: p.fanout, MaxAgg: cs.maxAgg, Layers: cs.layers,
		}
		_, leafNA, err := cm.Estimate()
		if err != nil {
			return err
		}
		estAccesses += leafNA*(1+1/p.fanout) + 2

		start := time.Now()
		if _, _, err := p.tree.QueryCtx(context.Background(), q, nil); err != nil {
			return err
		}
		idxMicros += float64(time.Since(start).Microseconds())

		start = time.Now()
		if _, err := p.scan.Query(q); err != nil {
			return err
		}
		scanMicros += float64(time.Since(start).Microseconds())
		scannedPOIs += float64(p.scan.Len())
	}
	if estAccesses <= 0 || scannedPOIs <= 0 {
		return errors.New("planner: degenerate calibration")
	}
	p.usPerAccess = math.Max(idxMicros/estAccesses, 1e-6)
	p.usPerPOI = math.Max(scanMicros/scannedPOIs, 1e-6)
	return nil
}

// Query plans and executes q, returning the results, the plan taken and
// the index's work counters (zero when the scan ran).
func (p *Planner) Query(q core.Query) ([]core.Result, Plan, core.QueryStats, error) {
	return p.QueryCtx(context.Background(), q, nil)
}

// QueryCtx plans and executes q with per-query options. When opts carries
// an explain recorder, the plan is attached to it before execution, the
// recorder is finished on every path (a scan-engine explain carries the
// plan and outcome but no tree forensics — the tree never ran), and the
// executed plan feeds the calibration metrics when the planner is
// instrumented. On an estimate-only planner (NewEstimator) the tree always
// executes and the plan is advisory.
func (p *Planner) QueryCtx(ctx context.Context, q core.Query, opts *core.QueryOpts) ([]core.Result, Plan, core.QueryStats, error) {
	plan, err := p.Plan(q)
	if err != nil {
		return nil, plan, core.QueryStats{}, err
	}
	var ex *core.Explain
	if opts != nil {
		ex = opts.Explain
	}
	if ex != nil {
		ex.Plan = plan.Explain()
	}
	if plan.Engine == UseScan && p.scan != nil {
		res, err := p.scan.Query(q)
		ex.Finish(res, core.QueryStats{}, err)
		p.Observe(plan, ex)
		return res, plan, core.QueryStats{}, err
	}
	res, stats, err := p.tree.QueryCtx(ctx, q, opts)
	p.Observe(plan, ex)
	return res, plan, stats, err
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
