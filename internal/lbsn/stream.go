package lbsn

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"tartree/internal/core"
)

// StreamCheckIn is one event of the live check-in stream: check-in ID
// (1-based position in the stream) at POI at Unix time At. The stream is the
// ingestion-path counterpart of the bulk CSV pair: the same data set
// flattened into arrival order, ready to be replayed through AddCheckIn or a
// durable WAL store.
type StreamCheckIn struct {
	POI int64
	ID  int64
	At  int64
}

// CheckInStream flattens the data set into one deterministic time-ordered
// stream: all check-ins sorted by (time, POI), with IDs assigned in stream
// order. Replaying it through the ingest path and flushing yields the same
// aggregates as a bulk Build of the same data.
func (d *Dataset) CheckInStream() []StreamCheckIn {
	var n int
	for i := range d.POIs {
		n += len(d.POIs[i].Times)
	}
	out := make([]StreamCheckIn, 0, n)
	for i := range d.POIs {
		p := &d.POIs[i]
		for _, ts := range p.Times {
			out = append(out, StreamCheckIn{POI: p.ID, At: ts})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].POI < out[b].POI
	})
	for i := range out {
		out[i].ID = int64(i + 1)
	}
	return out
}

// WriteCheckInStream writes the stream as CSV with header poi,id,ts.
func WriteCheckInStream(w io.Writer, cs []StreamCheckIn) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "poi,id,ts"); err != nil {
		return err
	}
	for _, c := range cs {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", c.POI, c.ID, c.At); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCheckInStream reads a stream written by WriteCheckInStream.
func ReadCheckInStream(r io.Reader) ([]StreamCheckIn, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.FieldsPerRecord = 3
	var out []StreamCheckIn
	first := true
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("lbsn: reading check-in stream: %w", err)
		}
		if first {
			first = false
			continue // header
		}
		poi, err1 := strconv.ParseInt(row[0], 10, 64)
		id, err2 := strconv.ParseInt(row[1], 10, 64)
		ts, err3 := strconv.ParseInt(row[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("lbsn: malformed stream row %v", row)
		}
		out = append(out, StreamCheckIn{POI: poi, ID: id, At: ts})
	}
}

// BuildEmpty generates the data set and indexes its effective POIs with
// empty histories: the same POI set Build selects, but every aggregate left
// for the ingestion path to deliver. Replaying the full CheckInStream into
// the result and flushing reproduces Build's aggregates — the equivalence
// the stream tools (tarquery -replay, tarserve -replay) rely on. Like Build
// it streams, so the data set is never held.
func (s Spec) BuildEmpty(o BuildOptions) (*core.Tree, error) { return s.build(o, true) }

// ReplayStream feeds the stream through the tree's ingest path, skipping
// check-ins for POIs the tree does not index (non-effective POIs are absent
// by design), and returns how many were applied and skipped. The caller
// flushes when done.
func ReplayStream(tr *core.Tree, cs []StreamCheckIn) (applied, skipped int64, err error) {
	for _, c := range cs {
		if _, ok := tr.Lookup(c.POI); !ok {
			skipped++
			continue
		}
		if err := tr.AddCheckIn(c.POI, c.At); err != nil {
			return applied, skipped, err
		}
		applied++
	}
	return applied, skipped, nil
}
