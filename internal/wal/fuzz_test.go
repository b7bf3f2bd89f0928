package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/tia"
)

// fuzzBaseTree is newBaseTree with a history: every POI holds its first
// epochs, so the columns apply and a flush patches them, or turns them off.
func fuzzBaseTree() (*core.Tree, error) {
	tr, err := core.NewTree(core.Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		EpochLength: testEpochLn,
	})
	if err != nil {
		return nil, err
	}
	for id := int64(1); id <= testPOIs; id++ {
		var hist []tia.Record
		for e := int64(0); e < 1+id%5; e++ {
			hist = append(hist, tia.Record{Ts: e * testEpochLn, Te: (e + 1) * testEpochLn, Agg: id})
		}
		p := core.POI{ID: id, X: float64(id*13%97) + 1, Y: float64(id*29%89) + 2}
		if err := tr.InsertPOI(p, hist); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// FuzzIngestCheckpointReopens: an acknowledged check-in never breaks
// recovery. The input is up to 32 check-ins of 9 bytes each (a POI byte,
// then a little-endian time); the first half is ingested, flushed and
// checkpointed, the rest ingested and flushed, and the store reopened from
// the checkpoint and the WAL tail. Ingest may refuse a check-in only with
// ErrInvalid; the reopen must succeed, and once every epoch is flushed each
// POI's history must be its base history plus exactly its acknowledged
// check-ins.
func FuzzIngestCheckpointReopens(f *testing.F) {
	enc := func(ts ...int64) []byte {
		var b []byte
		for i, at := range ts {
			b = append(b, byte(i))
			b = binary.LittleEndian.AppendUint64(b, uint64(at))
		}
		return b
	}
	f.Add(enc(math.MaxInt64-3, 150))
	f.Add(enc(0, 99, 100, 199, 200, -1))
	f.Add(enc(5, math.MaxInt64/testEpochLn*testEpochLn-1, 7))
	f.Add(enc(1e15, 250, 9e18, 1e4))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cs []CheckIn
		for len(data) >= 9 && len(cs) < 32 {
			cs = append(cs, CheckIn{POI: 1 + int64(data[0])%testPOIs, At: int64(binary.LittleEndian.Uint64(data[1:9]))})
			data = data[9:]
		}
		fs := testFS(t)
		s, err := OpenStore(fs, fuzzBaseTree, StoreOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		s.Freeze()
		var acked []CheckIn
		ingest := func(cs []CheckIn) {
			for _, c := range cs {
				if _, err := s.Ingest([]CheckIn{c}); err == nil {
					acked = append(acked, c)
				} else if !errors.Is(err, ErrInvalid) {
					t.Fatalf("ingest %+v: %v", c, err)
				}
			}
			if err := s.FlushObserved(); err != nil {
				t.Fatal(err)
			}
		}
		ingest(cs[:len(cs)/2])
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ingest(cs[len(cs)/2:])
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s, err = OpenStore(fs, fuzzBaseTree, StoreOptions{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after acknowledging %+v: %v", acked, err)
		}
		defer s.Close()
		if err := s.FlushEpochs(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		want, err := fuzzBaseTree()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range acked {
			if err := want.AddCheckIn(c.POI, c.At); err != nil {
				t.Fatalf("the reference refuses acknowledged %+v: %v", c, err)
			}
		}
		if err := want.FlushAll(); err != nil {
			t.Fatal(err)
		}
		s.View(func(tr *core.Tree) {
			for id := int64(1); id <= testPOIs; id++ {
				got, _ := tr.History(id)
				exp, _ := want.History(id)
				if !slices.Equal(got, exp) {
					t.Fatalf("POI %d recovered %v, want %v (acknowledged %+v)", id, got, exp, acked)
				}
			}
		})
	})
}
