package obs

// PageSink publishes page-buffer traffic into registry counters. It
// structurally implements pagestore.Sink (obs deliberately imports nothing
// but the standard library, so the interface is satisfied by method set
// rather than by naming the type) and pagestore.BulkSink: attach one to a
// pagestore.Buffer — or to every buffer of a TIA factory via AttachSink —
// and the buffer's hits, misses, evictions and physical I/O appear under
// <prefix>_* metrics.
type PageSink struct {
	hits        *Counter
	misses      *Counter
	logWrites   *Counter
	physWrites  *Counter
	evictions   *Counter
	dirtyEvicts *Counter
}

// NewPageSink registers the page-traffic counters under prefix (e.g.
// "tartree_pagestore") and returns the sink. Calling it twice with the same
// registry and prefix returns sinks sharing the same counters.
func NewPageSink(r *Registry, prefix string) *PageSink {
	return &PageSink{
		hits:        r.Counter(prefix + `_reads_total{result="hit"}`),
		misses:      r.Counter(prefix + `_reads_total{result="miss"}`),
		logWrites:   r.Counter(prefix + `_writes_total{kind="logical"}`),
		physWrites:  r.Counter(prefix + `_writes_total{kind="physical"}`),
		evictions:   r.Counter(prefix + `_evictions_total{kind="clean"}`),
		dirtyEvicts: r.Counter(prefix + `_evictions_total{kind="dirty"}`),
	}
}

// PageRead implements pagestore.Sink: one logical read, served from the
// buffer (hit) or from the underlying file (miss = physical read).
func (s *PageSink) PageRead(hit bool) {
	if hit {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
}

// PageWrite implements pagestore.Sink: physical writes reached the file,
// logical writes were absorbed by the buffer.
func (s *PageSink) PageWrite(physical bool) {
	if physical {
		s.physWrites.Inc()
	} else {
		s.logWrites.Inc()
	}
}

// PageEvicted implements pagestore.Sink.
func (s *PageSink) PageEvicted(dirty bool) {
	if dirty {
		s.dirtyEvicts.Inc()
	} else {
		s.evictions.Inc()
	}
}

// AddPages implements pagestore.BulkSink: a batch of page traffic that its
// owner (a query) counted privately, folded in with one add per counter
// instead of one per page.
func (s *PageSink) AddPages(hits, misses, logicalWrites, physicalWrites, cleanEvictions, dirtyEvictions int64) {
	s.hits.Add(hits)
	s.misses.Add(misses)
	s.logWrites.Add(logicalWrites)
	s.physWrites.Add(physicalWrites)
	s.evictions.Add(cleanEvictions)
	s.dirtyEvicts.Add(dirtyEvictions)
}
