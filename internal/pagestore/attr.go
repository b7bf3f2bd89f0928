// Page-traffic accounting. The paper's evaluation (§8) reports page
// accesses, logical and physical, so every access through a Buffer is
// counted in the buffer's own Stats and, beyond that, exactly once more: in
// the IOAcct of the query that caused it (GetAcct/PutAcct), or else in the
// Ledger the buffer was built with, into which accts are added in bulk. A
// Ledger is therefore the total of everything its buffers did.
package pagestore

import "sync/atomic"

// IOAcct is a query-local I/O accounting context. A query (or any other
// logical unit of work) owns one IOAcct, passes it with its page accesses
// (Buffer.GetAcct), and afterwards reads its own traffic off Stats — no
// diffing of global shared counters, so per-query numbers stay exact while
// any number of queries run concurrently.
//
// Traffic that carries an acct reaches nothing shared: the buffer counts it
// in its own stats and in the acct, and leaves its ledger alone. The owner
// adds what the acct gathered to the ledger in bulk (Ledger.AddAcct, and
// the tia factories' FoldAcct on top of it) and then empties the acct, so a
// page read writes no counter shared by the factory's buffers and the
// ledger still reaches the same totals once the owner has folded.
//
// An IOAcct must not be shared by concurrently running units of work: its
// fields are plain values and the owning query's goroutine is expected to
// be the only one whose accesses carry it. (A buffer's lock guards the
// buffer, not the acct; distinct concurrent queries carry distinct accts.)
type IOAcct struct {
	// Stats totals the traffic of the accesses carrying this acct,
	// including evictions and write-backs those accesses forced.
	Stats Stats
	// DirtyEvictions is the part of Stats.Evictions that wrote a dirty
	// frame back (the write-back itself is one of the PhysicalWrites).
	DirtyEvictions int64
	// Probes counts the TIA aggregate probes charged to this acct; the tia
	// package bumps it instead of its process-wide probe counters.
	Probes int64
}

// addNonZero spares a bulk add the locked instruction for the counters a
// batch leaves alone (a read-only query's batch is reads and nothing else).
func addNonZero(c *atomic.Int64, d int64) {
	if d != 0 {
		c.Add(d)
	}
}

// Ledger totals the page traffic of the buffers built with it (see
// NewBufferWithLedger): the one shared book a tia factory keeps for all its
// indexes, however many there are. Unowned traffic is counted as it
// happens, owned traffic when its owner adds the acct; whoever wants the
// totals (an experiment, a /metrics scrape) reads Stats.
//
// A Ledger is cumulative and has no reset: it is shared, and zeroing it
// would skew every reader that diffs two readings (Stats.Sub). The zero
// Ledger is ready to use; it must not be copied after first use.
type Ledger struct {
	// Reads are kept as hits and misses, each only growing, so a scrape
	// racing a fold never sees either go back.
	hits           atomic.Int64
	misses         atomic.Int64
	logicalWrites  atomic.Int64
	physicalWrites atomic.Int64
	evictions      atomic.Int64
	// dirtyEvictions is the part of evictions that wrote a dirty frame back.
	dirtyEvictions atomic.Int64
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

// DirtyEvictions returns how many of the evictions in Stats wrote a dirty
// frame back.
func (l *Ledger) DirtyEvictions() int64 { return l.dirtyEvictions.Load() }

// AddAcct adds the traffic an IOAcct owner gathered privately since it last
// emptied the acct, as if each event had been counted when it happened.
func (l *Ledger) AddAcct(a *IOAcct) { l.add(a.Stats, a.DirtyEvictions) }

// add counts the events d, dirty of whose evictions were dirty.
func (l *Ledger) add(d Stats, dirty int64) {
	addNonZero(&l.hits, d.Hits())
	addNonZero(&l.misses, d.Misses())
	addNonZero(&l.logicalWrites, d.LogicalWrites)
	addNonZero(&l.physicalWrites, d.PhysicalWrites)
	addNonZero(&l.evictions, d.Evictions)
	addNonZero(&l.dirtyEvictions, dirty)
}
