package main

import (
	"math"
	"math/rand"
	"time"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/lbsn"
	"tartree/internal/seqscan"
	"tartree/internal/tia"
)

// world is the harness's own copy of the data the servers index: the
// generated data set, the POIs a server indexes (the query points), and the
// Section 3.2 sequential scan over them, the oracle every reply is checked
// against. The servers never see it; they regenerate the same data from the
// same spec.
type world struct {
	data      *lbsn.Dataset
	effective []core.POI
	scan      *seqscan.Scanner
	generate  time.Duration // lbsn.Generate alone
}

func newWorld(spec lbsn.Spec) (*world, error) {
	begin := time.Now()
	d, err := lbsn.Generate(spec)
	if err != nil {
		return nil, err
	}
	w := &world{data: d, generate: time.Since(begin)}
	// The tree's defaults: 7-day epochs, Contained semantics, every POI whose
	// total reaches the spec's effectiveness threshold (lbsn.Dataset.Build).
	w.scan = seqscan.New(d.World, tia.Contained)
	for i := range d.POIs {
		p := &d.POIs[i]
		hist := lbsn.History(p, spec.Start, 7*lbsn.Day, 0)
		var total int64
		for _, r := range hist {
			total += r.Agg
		}
		if total < spec.MinEffective {
			continue
		}
		poi := core.POI{ID: p.ID, X: p.X, Y: p.Y}
		w.effective = append(w.effective, poi)
		w.scan.Add(poi, hist)
	}
	return w, nil
}

// rect returns the data rectangle (the shard map is cut over it).
func (w *world) rect() geo.Rect { return w.data.World }

// stream is the request sequence of one workload for one seed. Every
// repetition replays it from the start against a fresh fleet, so the three
// windows of a run see the same requests in the same order.
type stream struct {
	pool []core.Query // the distinct queries
	// order indexes pool: request i is pool[order[i%len(order)]]. For the
	// distinct workloads it is the identity, so no query repeats before the
	// pool is exhausted; for the hot ones it is a Zipf draw over hotPool.
	order []int32
	// gaps are the open loop's inter-arrival times (Poisson arrivals:
	// independent users), in units of the mean gap.
	gaps    []float64
	batches [][]ingestItem // ingest batches, in send order
}

type ingestItem struct {
	POI int64 `json:"poi"`
	Ts  int64 `json:"ts"`
}

// distinctPerSecond sizes the distinct pool: far more queries per measured
// second than any closed loop here completes (~1 100/s on the seed commit),
// so the stream never wraps and no query repeats.
const distinctPerSecond = 20000

// newStream derives every request of the workload from seed and nothing
// else. span is the longest time one repetition drives traffic.
func newStream(w *world, wl workload, seed int64, span time.Duration) *stream {
	r := rand.New(rand.NewSource(seed))
	spec := w.data.Spec
	query := func() core.Query {
		p := w.effective[r.Intn(len(w.effective))]
		length := (int64(1) << uint(r.Intn(maxLenExp+1))) * lbsn.Day
		if full := spec.End - spec.Start; length > full {
			length = full
		}
		// The interval ends uniformly inside the data span.
		end := spec.Start + length + int64(r.Float64()*float64(spec.End-spec.Start-length))
		return core.Query{
			X: p.X, Y: p.Y,
			Iq:     tia.Interval{Start: end - length, End: end},
			K:      queryK,
			Alpha0: queryAlpha0,
		}
	}
	n := int(math.Ceil(span.Seconds() * distinctPerSecond))
	s := &stream{}
	if wl.hot {
		s.pool = make([]core.Query, hotPool)
		for i := range s.pool {
			s.pool[i] = query()
		}
		// rand.Zipf draws ranks 0..imax with P(k) ∝ (v+k)^−s.
		z := rand.NewZipf(r, hotZipfS, 1, hotPool-1)
		s.order = make([]int32, n)
		for i := range s.order {
			s.order[i] = int32(z.Uint64())
		}
	} else {
		s.pool = make([]core.Query, n)
		s.order = make([]int32, n)
		seen := make(map[core.Query]bool, n)
		for i := range s.pool {
			q := query()
			for seen[q] { // a clamped interval at a POI drawn twice
				q = query()
			}
			seen[q] = true
			s.pool[i] = q
			s.order[i] = int32(i)
		}
	}
	s.gaps = make([]float64, int(math.Ceil(span.Seconds()*wl.rate))+1)
	for i := range s.gaps {
		s.gaps[i] = r.ExpFloat64()
	}
	if wl.topo == topoDurable {
		s.batches = ingestBatches(w, r, int(math.Ceil(span.Seconds()*ingestRate))+1)
	}
	return s
}

// ingestBatches draws n batches of ingestBatch check-ins at indexed POIs.
// Timestamps lie after the data end, one second apart, so the answers over
// the historical span stay what the oracle computes.
func ingestBatches(w *world, r *rand.Rand, n int) [][]ingestItem {
	ts := w.data.Spec.End + lbsn.Day
	batches := make([][]ingestItem, n)
	for i := range batches {
		b := make([]ingestItem, ingestBatch)
		for j := range b {
			b[j] = ingestItem{POI: w.effective[r.Intn(len(w.effective))].ID, Ts: ts}
			ts++
		}
		batches[i] = b
	}
	return batches
}

// query returns request i of the stream and the pool slot it came from.
func (s *stream) query(i int) (core.Query, int32) {
	slot := s.order[i%len(s.order)]
	return s.pool[slot], slot
}
