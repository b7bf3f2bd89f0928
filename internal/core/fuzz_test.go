package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"tartree/internal/tia"
)

// fuzzInput reads a fuzz input byte by byte; past its end it reads zeros,
// so every input decodes to some world and query.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// intn returns a value in [0, n) from one byte.
func (in *fuzzInput) intn(n int) int { return int(in.byte()) % n }

// fuzzWorld decodes the options of a small tree: the grouping, both
// semantics, the sum or max fold, the in-memory, B+-tree or MVBT factory,
// and a fixed or a geometric epoch grid.
func fuzzWorld(in *fuzzInput) Options {
	h := in.byte()
	opts := Options{
		World:     world(0, 0, 100, 100),
		NodeSize:  256,
		Grouping:  []Grouping{TAR3D, IndSpa, IndAgg}[h%3],
		Semantics: tia.Semantics(h / 3 % 2),
		AggFunc:   tia.Func(h / 6 % 2),
	}
	switch h / 12 % 3 {
	case 1:
		opts.TIA = tia.NewBTreeFactory(256, 4)
	case 2:
		opts.TIA = tia.NewMVBTFactory(1024, 4)
	}
	if g := in.byte(); g%2 == 0 {
		opts.Epochs = FixedEpochs{Start: 0, Length: 1 + int64(g/2%16)}
	} else {
		opts.Epochs = GeometricEpochs{Start: 0, First: 1 + int64(g/2%4)}
	}
	return opts
}

// fuzzHistory buckets n check-in times from in into the epochs of e.
func fuzzHistory(in *fuzzInput, e Epochs, n int) []tia.Record {
	counts := map[tia.Interval]int64{}
	for i := 0; i < n; i++ {
		counts[e.EpochOf(int64(in.byte()))]++
	}
	hist := make([]tia.Record, 0, len(counts))
	for iv, c := range counts {
		hist = append(hist, tia.Record{Ts: iv.Start, Te: iv.End, Agg: c})
	}
	sort.Slice(hist, func(i, j int) bool { return hist[i].Ts < hist[j].Ts })
	return hist
}

// fuzzAlpha decodes α0: exactly 0, 1 or NaN, which Validate refuses, or a
// value inside (0, 1), some a hair from either end.
func fuzzAlpha(in *fuzzInput) float64 {
	a, b := in.byte(), float64(in.byte())
	switch a % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return math.NaN()
	case 3:
		return (1 + b) * 1e-12
	case 4:
		return 1 - (1+b)*1e-12
	}
	return (0.5 + b) / 256
}

// FuzzSearchMatchesScan decodes its input into a small world — up to 200
// POIs on a coarse grid, so that many share a location or a history and
// their scores tie — and two queries, and requires the best-first search to
// answer what the Section 3.2 scan does, tie for tie in (score, id) order
// (checkAgainstScan), for k above the
// POI count and for intervals shorter than an epoch too. Between the two
// queries up to 63 check-ins are ingested and flushed, so the second query
// reads the columns the first one compiled as the flush patched them (or
// compiled them afresh, where a patch did not fit). A query
// Validate refuses (an empty or inverted interval, α0 of 0, 1 or NaN) must
// fail with ErrInvalid. The query's TIA page reads must be what the
// factory's ledger gained: none on the in-memory factory.
func FuzzSearchMatchesScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 12, 5, 5, 3, 10, 20, 30, 5, 5, 3, 10, 20, 30, 50, 50, 4, 30, 100, 5, 7, 9})
	f.Add([]byte{13, 1, 40, 1, 2, 7, 1, 2, 3, 4, 5, 6, 7, 3, 4, 2, 9, 9, 60, 40, 250, 1, 20, 1})
	f.Add([]byte{26, 3, 150, 9, 9, 6, 200, 100, 50, 25, 12, 6, 0, 0, 0, 10, 255, 0, 4, 0, 3, 255})
	f.Add([]byte{31, 6, 8, 0, 10, 2, 1, 1, 10, 0, 2, 1, 1, 5, 5, 30, 10, 2, 0, 0, 0})
	f.Add([]byte{0, 8, 6, 5, 5, 2, 10, 30, 9, 9, 1, 200, 50, 50, 10, 120, 7, 5, 4, 99, 9, 2, 7, 40, 1, 0, 200, 1, 100, 200, 5, 3, 9})
	f.Add([]byte("00\x05000000000000000000007")) // five POIs alike on one point, k = 4: every score ties
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		opts := fuzzWorld(&in)
		tr := mustTree(t, opts)
		n := in.intn(201)
		for id := int64(1); id <= int64(n); id++ {
			p := POI{ID: id, X: float64(in.intn(11) * 10), Y: float64(in.intn(11) * 10)}
			if err := tr.InsertPOI(p, fuzzHistory(&in, opts.Epochs, in.intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			if round == 1 && n > 0 {
				for i := in.intn(64); i > 0; i-- {
					if err := tr.AddCheckIn(1+int64(in.intn(n)), int64(in.byte())); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			start := int64(in.intn(272)) - 8
			q := Query{
				X:      float64(in.intn(101)),
				Y:      float64(in.intn(101)),
				Iq:     tia.Interval{Start: start, End: start + int64(in.intn(300)) - 2},
				K:      1 + in.intn(n+4),
				Alpha0: fuzzAlpha(&in),
			}
			ledger := tr.Options().TIA.Ledger()
			before := ledger.Stats()
			got, stats, err := tr.QueryCtx(context.Background(), q, nil)
			if q.Validate() != nil {
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("q=%+v: err = %v, want ErrInvalid", q, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("q=%+v: %v", q, err)
			}
			checkAgainstScan(t, tr, q, got)
			if reads := ledger.Stats().Sub(before).LogicalReads; stats.TIAAccesses != reads {
				t.Fatalf("q=%+v: stats count %d TIA reads, the ledger gained %d", q, stats.TIAAccesses, reads)
			}
		}
	})
}
