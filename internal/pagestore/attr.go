// Page-traffic accounting. The paper's evaluation (§8) reports page
// accesses, logical and physical, so every access through a Buffer is
// counted once, as it happens, in the Ledger the buffer was built with. A
// Ledger is therefore the total of everything its buffers did.
package pagestore

import "sync/atomic"

// Ledger totals the page traffic of the buffers built with it (see
// NewBufferWithLedger): the one shared book a tia factory keeps for all its
// indexes, however many there are. Whoever wants the totals (an experiment,
// a query's stats) reads Stats, and a window is the difference of two
// readings (Stats.Sub).
//
// A Ledger is cumulative and has no reset: it is shared, and zeroing it
// would skew every reader that diffs two readings. The zero Ledger is ready
// to use; it must not be copied after first use. The methods that count are
// no-ops on a nil Ledger, the book of a buffer nobody totals.
type Ledger struct {
	// Reads are kept as hits and misses, each only growing, so a reader
	// racing a count never sees either go back.
	hits           atomic.Int64
	misses         atomic.Int64
	logicalWrites  atomic.Int64
	physicalWrites atomic.Int64
	evictions      atomic.Int64
}

// Stats returns the current totals.
func (l *Ledger) Stats() Stats {
	misses := l.misses.Load()
	return Stats{
		LogicalReads:   l.hits.Load() + misses,
		PhysicalReads:  misses,
		LogicalWrites:  l.logicalWrites.Load(),
		PhysicalWrites: l.physicalWrites.Load(),
		Evictions:      l.evictions.Load(),
	}
}

// read counts one page read, a miss when it reached the file.
func (l *Ledger) read(hit bool) {
	switch {
	case l == nil:
	case hit:
		l.hits.Add(1)
	default:
		l.misses.Add(1)
	}
}

// logicalWrite counts one page a caller stored.
func (l *Ledger) logicalWrite() {
	if l != nil {
		l.logicalWrites.Add(1)
	}
}

// physicalWrite counts one page written to the file.
func (l *Ledger) physicalWrite() {
	if l != nil {
		l.physicalWrites.Add(1)
	}
}

// evict counts one eviction, and its write-back when the frame was dirty.
func (l *Ledger) evict(dirty bool) {
	if l == nil {
		return
	}
	l.evictions.Add(1)
	if dirty {
		l.physicalWrites.Add(1)
	}
}
