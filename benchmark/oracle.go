package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tartree/internal/core"
)

// errWrongAnswer marks a reply the oracle rejected.
var errWrongAnswer = errors.New("wrong answer")

const (
	// scoreTolerance is the largest accepted |Δscore| between a reply and
	// the sequential scan.
	scoreTolerance = 1e-9
	// tieSlack is how many ranks past k the oracle computes, so that a reply
	// which broke a tie at rank k differently is still recognised.
	tieSlack = 8
)

// oracle answers the stream's queries by the Section 3.2 sequential scan,
// once per pool slot.
type oracle struct {
	world  *world
	stream *stream
	mu     sync.Mutex
	memo   map[int32][]core.Result
}

func newOracle(w *world, s *stream) *oracle {
	return &oracle{world: w, stream: s, memo: make(map[int32][]core.Result)}
}

// expected returns the scan's top k+tieSlack for the pool slot.
func (o *oracle) expected(slot int32) ([]core.Result, error) {
	o.mu.Lock()
	want, ok := o.memo[slot]
	o.mu.Unlock()
	if ok {
		return want, nil
	}
	q := o.stream.pool[slot]
	q.K += tieSlack
	want, err := o.world.scan.Query(q)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.memo[slot] = want
	o.mu.Unlock()
	return want, nil
}

// check compares one reply with the scan: k results (fewer only when fewer
// POIs exist), the score at every rank within scoreTolerance, and every
// returned POI among the scan's results with that score — which accepts
// either order of POIs whose scores tie.
func check(got []hit, want []core.Result, k int) error {
	n := min(k, len(want))
	if len(got) != n {
		return fmt.Errorf("%d results, want %d", len(got), n)
	}
	seen := make(map[int64]bool, len(got))
	for i, h := range got {
		if d := math.Abs(h.score - want[i].Score); !(d <= scoreTolerance) {
			return fmt.Errorf("rank %d: score %v, scan has %v", i, h.score, want[i].Score)
		}
		if seen[h.id] {
			return fmt.Errorf("rank %d: POI %d returned twice", i, h.id)
		}
		seen[h.id] = true
		found := false
		for _, w := range want {
			if w.POI.ID == h.id && math.Abs(w.Score-h.score) <= scoreTolerance {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("rank %d: POI %d with score %v is not in the scan's top %d", i, h.id, h.score, len(want))
		}
	}
	return nil
}

// verify checks every answered sample of the windows against the oracle and
// marks the wrong ones failed. It runs after the windows, outside any timed
// code, on all cores.
func (o *oracle) verify(windows ...*window) error {
	jobs := make(chan *sample)
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				want, err := o.expected(s.slot)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					continue
				}
				if err := check(s.hits, want, queryK); err != nil {
					s.err = fmt.Errorf("%w for query %d: %v", errWrongAnswer, s.slot, err)
				}
			}
		}()
	}
	for _, w := range windows {
		for i := range w.samples {
			if s := &w.samples[i]; s.err == nil {
				jobs <- s
			}
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return fmt.Errorf("oracle: %w", err)
	default:
		return nil
	}
}
