// Package lbsn generates synthetic location-based social network data sets
// calibrated to the four real data sets of the paper (Table 4: NYC, LA,
// GW, GS). The originals (Foursquare tips, Gowalla, Foursquare-via-Twitter)
// are not redistributable in this offline environment; the generator
// reproduces the statistics the paper's results depend on:
//
//   - POI and check-in counts and time spans (Table 4),
//   - per-POI check-in totals whose tail follows a discrete power law with
//     the Table 2 exponents and cutoffs (the input of the Section 6 cost
//     model and the source of the TAR-tree's advantage),
//   - clustered, city-like spatial placement (Gaussian mixture),
//   - check-in times from per-POI Poisson processes with staggered POI
//     births, so the network grows over time (the Figure 8 experiment
//     takes snapshots at 20%..100% of the time span).
//
// Generation is deterministic per (spec, seed).
package lbsn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/powerlaw"
	"tartree/internal/tia"
)

// Day is the length of one day in the generator's time unit (seconds).
const Day int64 = 86400

// Spec describes a data set to generate.
type Spec struct {
	Name      string
	Locations int   // number of POIs at scale 1
	CheckIns  int   // approximate number of check-ins at scale 1
	Start     int64 // Unix seconds of the first check-in
	End       int64 // Unix seconds of the last check-in
	// Beta and Xmin parameterize the power-law tail of per-POI check-in
	// totals (Table 2's β̂ and x̂min).
	Beta float64
	Xmin int64
	// MinEffective is the check-in threshold for a POI to be indexed
	// (Section 8: 15, 10, 100 and 50 for the four data sets).
	MinEffective int64
	// Clusters is the number of spatial hot spots.
	Clusters int
	Seed     int64
}

func date(y int, m time.Month) int64 {
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC).Unix()
}

// The four data sets of Table 4, with the Table 2 tail parameters.
var (
	NYC = Spec{Name: "NYC", Locations: 72626, CheckIns: 237784,
		Start: date(2008, 5), End: date(2011, 6), Beta: 3.20, Xmin: 31,
		MinEffective: 15, Clusters: 40, Seed: 1}
	LA = Spec{Name: "LA", Locations: 45591, CheckIns: 127924,
		Start: date(2009, 2), End: date(2011, 7), Beta: 3.07, Xmin: 16,
		MinEffective: 10, Clusters: 35, Seed: 2}
	GW = Spec{Name: "GW", Locations: 1280969, CheckIns: 6442803,
		Start: date(2009, 2), End: date(2010, 10), Beta: 2.82, Xmin: 85,
		MinEffective: 100, Clusters: 60, Seed: 3}
	GS = Spec{Name: "GS", Locations: 182968, CheckIns: 1385223,
		Start: date(2011, 1), End: date(2011, 7), Beta: 2.19, Xmin: 59,
		MinEffective: 50, Clusters: 45, Seed: 4}
)

// Specs lists the four data sets in the paper's order.
func Specs() []Spec { return []Spec{NYC, LA, GW, GS} }

// SpecByName returns the spec with the given name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("lbsn: unknown data set %q", name)
}

// Scaled returns a copy with POI and check-in counts scaled by f, keeping
// the per-POI distribution (and hence the effectiveness threshold) intact.
// A factor outside (0, 1] returns s unchanged; SpecFor rejects it instead.
func (s Spec) Scaled(f float64) Spec {
	if f <= 0 || f > 1 {
		return s
	}
	s.Locations = int(float64(s.Locations) * f)
	s.CheckIns = int(float64(s.CheckIns) * f)
	return s
}

// SpecFor returns the named data set scaled by f, which must lie in (0, 1]:
// the lookup behind every command's -dataset and -scale flags.
func SpecFor(name string, f float64) (Spec, error) {
	s, err := SpecByName(name)
	if err != nil {
		return Spec{}, err
	}
	if !(f > 0 && f <= 1) {
		return Spec{}, fmt.Errorf("lbsn: scale %g outside (0, 1]", f)
	}
	return s.Scaled(f), nil
}

// World is the square every generated POI lies in.
func (s Spec) World() geo.Rect {
	return geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{worldSide, worldSide}}
}

// POI is a generated location with its check-in times (ascending).
type POI struct {
	ID    int64
	X, Y  float64
	Times []int64
}

// Total returns the POI's lifetime check-in count.
func (p *POI) Total() int64 { return int64(len(p.Times)) }

// Dataset is a generated LBSN.
type Dataset struct {
	Spec  Spec
	World geo.Rect
	POIs  []POI
}

// worldSide is the abstract size of the city square.
const worldSide = 100.0

// Generate materializes the data set.
func Generate(spec Spec) (*Dataset, error) {
	d := &Dataset{Spec: spec, World: spec.World(), POIs: make([]POI, 0, max(spec.Locations, 0))}
	err := spec.each(false, func(p *POI) error {
		d.POIs = append(d.POIs, *p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// each draws the data set's POIs in ID order and hands each one to fn; fn's
// error stops the generation. Without reuse each POI gets its own Times,
// sorted ascending. With reuse every POI's Times is the same buffer, in draw
// order and overwritten by the next POI, so fn must copy what it keeps.
func (s Spec) each(reuse bool, fn func(p *POI) error) error {
	if s.Locations <= 0 || s.CheckIns <= 0 || s.End <= s.Start {
		return fmt.Errorf("lbsn: invalid spec %+v", s)
	}
	r := rand.New(rand.NewSource(s.Seed))

	// Spatial mixture: cluster centers with Zipf-distributed popularity and
	// varied spreads, plus a uniform background component.
	type cluster struct {
		cx, cy, sigma, weight float64
	}
	clusters := make([]cluster, s.Clusters)
	wsum := 0.0
	for i := range clusters {
		clusters[i] = cluster{
			cx:     r.Float64() * worldSide,
			cy:     r.Float64() * worldSide,
			sigma:  worldSide * (0.01 + 0.04*r.Float64()),
			weight: 1 / math.Pow(float64(i+1), 1.0),
		}
		wsum += clusters[i].weight
	}
	pickCluster := func() cluster {
		u := r.Float64() * wsum
		for _, c := range clusters {
			if u -= c.weight; u <= 0 {
				return c
			}
		}
		return clusters[len(clusters)-1]
	}

	// Per-POI totals: a geometric body below Xmin mixed with a power-law
	// tail from (Beta, Xmin), with the tail probability calibrated so the
	// overall mean matches CheckIns/Locations.
	targetMean := float64(s.CheckIns) / float64(s.Locations)
	tail, err := powerlaw.NewDist(s.Beta, s.Xmin)
	if err != nil {
		return err
	}
	tailMean := tail.Mean()
	if math.IsInf(tailMean, 1) {
		// β <= 2: the untruncated mean diverges; use the truncated mean at
		// the sampler's practical ceiling.
		tailMean = truncatedMean(tail, s.Xmin*1000)
	}
	// Geometric body on [1, Xmin): success probability chosen for a small
	// mean, then truncated.
	bodyP := 0.45
	bodyMean := geomTruncMean(bodyP, s.Xmin)
	pTail := (targetMean - bodyMean) / (tailMean - bodyMean)
	if pTail < 0.0005 {
		pTail = 0.0005
	}
	if pTail > 0.9 {
		pTail = 0.9
	}
	sampler := tail.NewSampler(r)
	sampleTotal := func() int64 {
		if r.Float64() < pTail {
			return sampler.Sample()
		}
		// Truncated geometric on [1, Xmin).
		for {
			x := int64(1)
			for r.Float64() < 1-bodyP {
				x++
			}
			if x < s.Xmin {
				return x
			}
		}
	}

	span := s.End - s.Start
	var (
		p   POI
		buf []int64
	)
	for i := 0; i < s.Locations; i++ {
		c := pickCluster()
		var x, y float64
		if r.Float64() < 0.1 {
			x, y = r.Float64()*worldSide, r.Float64()*worldSide
		} else {
			x = clamp(c.cx+r.NormFloat64()*c.sigma, 0, worldSide)
			y = clamp(c.cy+r.NormFloat64()*c.sigma, 0, worldSide)
		}
		total := sampleTotal()
		// POIs are born throughout the first 60% of the span; check-ins
		// arrive uniformly between birth and the end (a homogeneous
		// Poisson process conditioned on the total).
		birth := s.Start + int64(r.Float64()*0.6*float64(span))
		if !reuse || int64(cap(buf)) < total {
			buf = make([]int64, total)
		}
		times := buf[:total]
		for j := range times {
			times[j] = birth + int64(r.Float64()*float64(s.End-birth))
		}
		if !reuse {
			slices.Sort(times) // History does not need it; Generate's POIs promise it
		}
		p = POI{ID: int64(i + 1), X: x, Y: y, Times: times}
		if err := fn(&p); err != nil {
			return err
		}
	}
	return nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func truncatedMean(d *powerlaw.Dist, cap int64) float64 {
	sum, norm := 0.0, 0.0
	for x := d.Xmin; x <= cap; x++ {
		p := d.PMF(x)
		sum += float64(x) * p
		norm += p
	}
	return sum / norm
}

// geomTruncMean returns the mean of a geometric(p) variable truncated to
// [1, xmin).
func geomTruncMean(p float64, xmin int64) float64 {
	sum, norm := 0.0, 0.0
	prob := p
	for x := int64(1); x < xmin; x++ {
		sum += float64(x) * prob
		norm += prob
		prob *= 1 - p
	}
	if norm == 0 {
		return 1
	}
	return sum / norm
}

// TotalCheckIns returns the number of check-ins in the data set.
func (d *Dataset) TotalCheckIns() int64 {
	var n int64
	for i := range d.POIs {
		n += d.POIs[i].Total()
	}
	return n
}

// Totals returns the per-POI check-in totals (the Table 2 fitting input).
func (d *Dataset) Totals() []int64 {
	out := make([]int64, len(d.POIs))
	for i := range d.POIs {
		out[i] = d.POIs[i].Total()
	}
	return out
}

// SnapshotEnd returns the timestamp at the given fraction of the time span
// (Figure 8 takes snapshots at 20%, 40%, ..., 100%).
func (d *Dataset) SnapshotEnd(frac float64) int64 {
	return d.Spec.Start + int64(frac*float64(d.Spec.End-d.Spec.Start))
}

// History buckets one POI's check-ins up to cutoff into epochs of the given
// grid, returning the non-zero records ascending. A zero cutoff means the
// full span. The times may come in any order: History counts them into an
// array over the POI's own epoch range, which yields the records a pass over
// the sorted times would. When that range is longer than the check-in count
// it sorts the epoch indexes instead, so a short epoch allocates no more
// than the times do.
func History(p *POI, epochStart, epochLength, cutoff int64) []tia.Record {
	if cutoff == 0 {
		cutoff = math.MaxInt64
	}
	lo, hi, n := int64(math.MaxInt64), int64(math.MinInt64), 0
	for _, t := range p.Times {
		if t < cutoff {
			idx := (t - epochStart) / epochLength
			lo, hi, n = min(lo, idx), max(hi, idx), n+1
		}
	}
	if n == 0 {
		return nil
	}
	span := uint64(hi) - uint64(lo) // hi-lo, which may not fit an int64
	recs := make([]tia.Record, 0, min(span+1, uint64(n)))
	emit := func(idx, agg int64) {
		ts := epochStart + idx*epochLength
		recs = append(recs, tia.Record{Ts: ts, Te: ts + epochLength, Agg: agg})
	}
	if span >= uint64(n) {
		idxs := make([]int64, 0, n)
		for _, t := range p.Times {
			if t < cutoff {
				idxs = append(idxs, (t-epochStart)/epochLength)
			}
		}
		slices.Sort(idxs)
		for i := 0; i < len(idxs); {
			j := i + 1
			for j < len(idxs) && idxs[j] == idxs[i] {
				j++
			}
			emit(idxs[i], int64(j-i))
			i = j
		}
		return recs
	}
	counts := make([]int64, hi-lo+1)
	for _, t := range p.Times {
		if t < cutoff {
			counts[(t-epochStart)/epochLength-lo]++
		}
	}
	for i, c := range counts {
		if c != 0 {
			emit(lo+int64(i), c)
		}
	}
	return recs
}

// BuildOptions configures Build.
type BuildOptions struct {
	Grouping    core.Grouping
	NodeSize    int   // bytes; 0 selects 1024
	EpochLength int64 // seconds; 0 selects 7 days
	TIA         tia.Factory
	Semantics   tia.Semantics
	// Cutoff indexes only check-ins before this time (0: all), and POIs
	// whose totals up to the cutoff reach the effectiveness threshold.
	Cutoff int64
	// Keep, when non-nil, further filters the effective POIs: only those
	// it accepts are indexed. Shard builds pass the shard map's ownership
	// predicate here, so each shard indexes its subset over the full
	// world rectangle (which keeps per-POI scores identical to a
	// single-node build). Spec.Build calls it on its generator goroutine.
	Keep func(p core.POI) bool
	// Metrics instruments the built tree (see core.Options.Metrics).
	Metrics *obs.Registry
	// Cache attaches a shared epoch-versioned result cache (see
	// core.Options.Cache). Nil disables caching.
	Cache *aggcache.Cache
}

// Build indexes the data set's effective POIs into a TAR-tree.
func (d *Dataset) Build(o BuildOptions) (*core.Tree, error) {
	tr, pick, err := d.Spec.indexer(d.World, o, false)
	if err != nil {
		return nil, err
	}
	for i := range d.POIs {
		if k, ok := pick(&d.POIs[i]); ok {
			if err := tr.InsertPOI(k.poi, k.hist); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}

// Build generates the data set and indexes each effective POI as it is
// drawn, into the same tree Generate(s).Build(o) returns: only the indexed
// POIs are ever held, not the whole data set, and their check-in times are
// never sorted. The generator and the selection rule (o.Keep included) run
// on a goroutine of their own beside the inserts, which take the kept POIs
// in the order they were drawn; that goroutine has ended when Build
// returns.
func (s Spec) Build(o BuildOptions) (*core.Tree, error) { return s.build(o, false) }

const (
	// keptBatch is how many kept POIs the generator hands over at a time,
	// and keptQueue how many handed-over batches may wait to be inserted:
	// enough to keep both sides busy, few enough to add little memory.
	keptBatch = 64
	keptQueue = 2
)

// errStopped stops the generator once the inserts have failed.
var errStopped = errors.New("lbsn: build stopped")

func (s Spec) build(o BuildOptions, empty bool) (*core.Tree, error) {
	tr, pick, err := s.indexer(s.World(), o, empty)
	if err != nil {
		return nil, err
	}
	batches := make(chan []kept, keptQueue)
	stop := make(chan struct{})
	var genErr error // set before batches closes
	go func() {
		defer close(batches)
		b := make([]kept, 0, keptBatch)
		send := func() error {
			select {
			case batches <- b:
				b = make([]kept, 0, keptBatch)
				return nil
			case <-stop:
				return errStopped
			}
		}
		genErr = s.each(true, func(p *POI) error {
			if k, ok := pick(p); ok {
				if b = append(b, k); len(b) == keptBatch {
					return send()
				}
			}
			return nil
		})
		if genErr == nil && len(b) > 0 {
			genErr = send()
		}
	}()
	for b := range batches {
		for _, k := range b {
			if err := tr.InsertPOI(k.poi, k.hist); err != nil {
				close(stop)
				for range batches { // wait for the generator to end
				}
				return nil, err
			}
		}
	}
	if genErr != nil {
		return nil, genErr
	}
	return tr, nil
}

// kept is a POI the selection rule indexes, with the history it is
// indexed with.
type kept struct {
	poi  core.POI
	hist []tia.Record
}

// indexer returns an empty tree over world and the one selection rule of
// every build: pick keeps a POI whose check-ins (up to o.Cutoff) reach the
// effectiveness threshold and that o.Keep accepts, with its history, or with
// none when empty is set. What pick keeps is a copy: it holds nothing of p.
func (s Spec) indexer(world geo.Rect, o BuildOptions, empty bool) (*core.Tree, func(*POI) (kept, bool), error) {
	if o.EpochLength == 0 {
		o.EpochLength = 7 * Day
	}
	tr, err := core.NewTree(core.Options{
		World:       world,
		NodeSize:    o.NodeSize,
		Grouping:    o.Grouping,
		TIA:         o.TIA,
		Semantics:   o.Semantics,
		EpochStart:  s.Start,
		EpochLength: o.EpochLength,
		Metrics:     o.Metrics,
		Cache:       o.Cache,
	})
	if err != nil {
		return nil, nil, err
	}
	pick := func(p *POI) (kept, bool) {
		hist, ok := s.effective(p, o.EpochLength, o.Cutoff)
		poi := core.POI{ID: p.ID, X: p.X, Y: p.Y}
		if !ok || (o.Keep != nil && !o.Keep(poi)) {
			return kept{}, false
		}
		if empty {
			hist = nil
		}
		return kept{poi, hist}, true
	}
	return tr, pick, nil
}

// effective buckets p's check-ins before cutoff (0: all) and reports
// whether their total reaches the effectiveness threshold.
func (s Spec) effective(p *POI, epochLength, cutoff int64) ([]tia.Record, bool) {
	if cutoff == 0 && p.Total() < s.MinEffective {
		return nil, false // every check-in counts: skip before History allocates
	}
	hist := History(p, s.Start, epochLength, cutoff)
	var total int64
	for _, r := range hist {
		total += r.Agg
	}
	return hist, total >= s.MinEffective
}

// EffectivePOIs returns the POIs Build would index — those whose check-in
// totals (up to cutoff; 0 means all) reach the effectiveness threshold —
// before any Keep filter. Shard-map construction partitions exactly this
// set. epochLength 0 selects the 7-day default, matching Build.
func (d *Dataset) EffectivePOIs(epochLength, cutoff int64) []core.POI {
	if epochLength == 0 {
		epochLength = 7 * Day
	}
	var out []core.POI
	for i := range d.POIs {
		p := &d.POIs[i]
		if _, ok := d.Spec.effective(p, epochLength, cutoff); ok {
			out = append(out, core.POI{ID: p.ID, X: p.X, Y: p.Y})
		}
	}
	return out
}

// Queries generates n kNNTA queries per the paper's setup: query points
// uniformly sampled from the POIs, query intervals of 2^0..2^9 days with
// uniformly drawn exponents, placed uniformly in the time span.
func (d *Dataset) Queries(n int, k int, alpha0 float64, seed int64) []core.Query {
	return d.QueriesUntil(n, k, alpha0, seed, d.Spec.End)
}

// QueriesUntil is Queries with intervals confined to [Start, end) — the
// growth experiment (Figure 8) queries each snapshot within its own span.
func (d *Dataset) QueriesUntil(n int, k int, alpha0 float64, seed, end int64) []core.Query {
	r := rand.New(rand.NewSource(seed))
	qs := make([]core.Query, n)
	span := end - d.Spec.Start
	for i := range qs {
		p := &d.POIs[r.Intn(len(d.POIs))]
		days := int64(1) << uint(r.Intn(10))
		length := days * Day
		if length > span {
			length = span
		}
		start := d.Spec.Start + int64(r.Float64()*float64(span-length))
		qs[i] = core.Query{
			X: p.X, Y: p.Y,
			Iq:     tia.Interval{Start: start, End: start + length},
			K:      k,
			Alpha0: alpha0,
		}
	}
	return qs
}

// QueryIntervals draws the given number of distinct query time intervals —
// the "query types" of the collective-processing experiment (Figure 16),
// where applications offer only a few interval presets.
func (d *Dataset) QueryIntervals(types int, seed int64) []tia.Interval {
	r := rand.New(rand.NewSource(seed))
	span := d.Spec.End - d.Spec.Start
	ivs := make([]tia.Interval, types)
	for i := range ivs {
		days := int64(1) << uint(r.Intn(10))
		length := days * Day
		if length > span {
			length = span
		}
		start := d.Spec.Start + int64(r.Float64()*float64(span-length))
		ivs[i] = tia.Interval{Start: start, End: start + length}
	}
	return ivs
}

// QueriesWithIntervals generates n queries whose intervals are drawn
// uniformly from the given presets.
func (d *Dataset) QueriesWithIntervals(n, k int, alpha0 float64, seed int64, ivs []tia.Interval) []core.Query {
	r := rand.New(rand.NewSource(seed))
	qs := make([]core.Query, n)
	for i := range qs {
		p := &d.POIs[r.Intn(len(d.POIs))]
		qs[i] = core.Query{
			X: p.X, Y: p.Y,
			Iq:     ivs[r.Intn(len(ivs))],
			K:      k,
			Alpha0: alpha0,
		}
	}
	return qs
}
