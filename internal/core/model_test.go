package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tartree/internal/tia"
)

// TestRandomOperationModel interleaves every mutating operation — POI
// inserts with and without history, check-ins, epoch flushes, deletions and
// rebuilds — and continuously validates the tree against its invariants and
// against brute-force query results. This is the package's fuzz-like model
// check.
func TestRandomOperationModel(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		g := g
		t.Run(g.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(404 + int64(g)))
			tr := mustTree(t, defaultOpts(g))
			nextID := int64(1)
			var live []int64
			clock := int64(0)

			for step := 0; step < 400; step++ {
				switch op := r.Intn(10); {
				case op < 4: // insert a POI (half with history)
					var hist []tia.Record
					if r.Intn(2) == 0 {
						for ep := int64(0); ep <= clock/10; ep++ {
							if r.Intn(3) == 0 {
								hist = append(hist, tia.Record{Ts: ep * 10, Te: ep*10 + 10, Agg: int64(1 + r.Intn(30))})
							}
						}
					}
					if err := tr.InsertPOI(POI{ID: nextID, X: r.Float64() * 100, Y: r.Float64() * 100}, hist); err != nil {
						t.Fatalf("step %d: insert: %v", step, err)
					}
					live = append(live, nextID)
					nextID++
				case op < 7 && len(live) > 0: // check-ins
					for i := 0; i < 1+r.Intn(10); i++ {
						id := live[r.Intn(len(live))]
						at := clock + int64(r.Intn(30))
						if err := tr.AddCheckIn(id, at); err != nil {
							t.Fatalf("step %d: checkin: %v", step, err)
						}
					}
				case op < 8: // advance time and flush
					clock += int64(10 + r.Intn(40))
					if err := tr.FlushEpochs(clock); err != nil {
						t.Fatalf("step %d: flush: %v", step, err)
					}
				case op < 9 && len(live) > 3: // delete a POI
					i := r.Intn(len(live))
					ok, err := tr.DeletePOI(live[i])
					if err != nil || !ok {
						t.Fatalf("step %d: delete: %v %v", step, ok, err)
					}
					live = append(live[:i], live[i+1:]...)
				default: // occasionally rebuild
					if step%7 == 0 {
						var err error
						if r.Intn(2) == 0 {
							err = tr.Rebuild()
						} else {
							err = tr.RebuildBulk()
						}
						if err != nil {
							t.Fatalf("step %d: rebuild: %v", step, err)
						}
					}
				}
				if step%50 == 49 {
					if err := tr.FlushAll(); err != nil {
						t.Fatal(err)
					}
					if err := tr.Check(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if tr.Len() != len(live) {
						t.Fatalf("step %d: len %d != %d", step, tr.Len(), len(live))
					}
					if len(live) == 0 {
						continue
					}
					q := Query{
						X: r.Float64() * 100, Y: r.Float64() * 100,
						Iq:     tia.Interval{Start: int64(r.Intn(50)), End: 50 + clock},
						K:      1 + r.Intn(5),
						Alpha0: 0.1 + 0.8*r.Float64(),
					}
					got, _, err := tr.QueryCtx(context.Background(), q, nil)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteForceQuery(t, tr, q)
					if len(got) != len(want) {
						t.Fatalf("step %d: %d vs %d results", step, len(got), len(want))
					}
					for i := range got {
						if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
							t.Fatalf("step %d pos %d: %.9f vs %.9f", step, i, got[i].Score, want[i].Score)
						}
					}
				}
			}
		})
	}
}

// TestConcurrentQueries runs read-only queries from many goroutines against
// every TIA backend; run with -race to catch sharing bugs (the TIA buffer
// pools synchronize internally, the R-tree and mirrors are immutable during
// queries, and I/O accounting is query-local).
func TestConcurrentQueries(t *testing.T) {
	backends := []struct {
		name string
		fac  func() tia.Factory
	}{
		{"mem", func() tia.Factory { return tia.NewMemFactory() }},
		{"btree", func() tia.Factory { return tia.NewBTreeFactory(256, 10) }},
		{"mvbt", func() tia.Factory { return tia.NewMVBTFactory(1024, 10) }},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			t.Parallel()
			opts := defaultOpts(TAR3D)
			opts.TIA = be.fac()
			tr, _ := buildRandomTreeOpts(t, opts, 800, 2024)
			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 30; i++ {
						q := Query{
							X: r.Float64() * 100, Y: r.Float64() * 100,
							Iq:     tia.Interval{Start: int64(r.Intn(100)), End: int64(120 + r.Intn(80))},
							K:      1 + r.Intn(10),
							Alpha0: 0.1 + 0.8*r.Float64(),
						}
						res, _, err := tr.QueryCtx(context.Background(), q, nil)
						if err != nil {
							errs <- err
							return
						}
						// Sanity: scores non-decreasing.
						for j := 1; j < len(res); j++ {
							if res[j].Score < res[j-1].Score-1e-12 {
								errs <- fmt.Errorf("score %v at rank %d below %v before it", res[j].Score, j, res[j-1].Score)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
