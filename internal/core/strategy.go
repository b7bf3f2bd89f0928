package core

import (
	"math"
	"sort"

	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// aggStrategy implements the IND-agg grouping of Section 5.1: entries are
// grouped by the similarity of their aggregate distributions, measured with
// the Manhattan distance. When a POI is added it goes to the node with the
// smallest distance; when a node splits, entries are redistributed so the
// distance between the two new nodes is maximized.
type aggStrategy struct{}

// entryRecords returns the aggregate-distribution records of an entry.
func entryRecords(e rstar.Entry) []tia.Record {
	if d, _ := e.Data.(tia.Index); d != nil {
		return d.Records()
	}
	return nil
}

// ChooseSubtree implements rstar.Strategy: pick the child whose aggregate
// distribution is nearest (Manhattan) to the inserted entry's, breaking
// ties by spatial enlargement so degenerate distributions stay stable.
func (aggStrategy) ChooseSubtree(t *rstar.Tree, n *rstar.Node, e rstar.Entry) int {
	recs := entryRecords(e)
	best, bestDist, bestEnl := 0, int64(math.MaxInt64), math.Inf(1)
	for i, c := range n.Entries {
		d := tia.ManhattanRecords(recs, entryRecords(c))
		enl := c.Rect.Enlargement(e.Rect, t.Dims())
		if d < bestDist || (d == bestDist && enl < bestEnl) {
			best, bestDist, bestEnl = i, d, enl
		}
	}
	return best
}

// Split implements rstar.Strategy: choose the two seed entries with the
// largest pairwise distribution distance and grow two groups by assigning
// each remaining entry to the nearer seed group, respecting the minimum
// fill. Group distributions are tracked as running per-epoch maxima, the
// same summary an internal TIA keeps.
func (aggStrategy) Split(t *rstar.Tree, level int, entries []rstar.Entry) ([]rstar.Entry, []rstar.Entry) {
	n := len(entries)
	m := t.MinFill()

	// Seed selection: the pair with maximum Manhattan distance.
	si, sj := 0, 1
	var bestD int64 = -1
	for i := 0; i < n; i++ {
		ri := entryRecords(entries[i])
		for j := i + 1; j < n; j++ {
			if d := tia.ManhattanRecords(ri, entryRecords(entries[j])); d > bestD {
				bestD, si, sj = d, i, j
			}
		}
	}

	var groupA, groupB tia.Mem
	groupA.MaxMerge(entryRecords(entries[si])) //nolint:errcheck // in memory: cannot fail
	groupB.MaxMerge(entryRecords(entries[sj])) //nolint:errcheck
	left := []rstar.Entry{entries[si]}
	right := []rstar.Entry{entries[sj]}

	// Assign the rest in order of strongest preference first.
	rest := make([]int, 0, n-2)
	for i := 0; i < n; i++ {
		if i != si && i != sj {
			rest = append(rest, i)
		}
	}
	type pref struct {
		idx  int
		diff int64 // |d(A) − d(B)|: larger means a clearer preference
	}
	prefs := make([]pref, len(rest))
	for k, i := range rest {
		ri := entryRecords(entries[i])
		da := tia.ManhattanRecords(ri, groupA.Records())
		db := tia.ManhattanRecords(ri, groupB.Records())
		d := da - db
		if d < 0 {
			d = -d
		}
		prefs[k] = pref{idx: i, diff: d}
	}
	sort.Slice(prefs, func(a, b int) bool { return prefs[a].diff > prefs[b].diff })

	for _, p := range prefs {
		i := p.idx
		ri := entryRecords(entries[i])
		da := tia.ManhattanRecords(ri, groupA.Records())
		db := tia.ManhattanRecords(ri, groupB.Records())
		// Honor the minimum fill: once one side can no longer give the
		// other its share, force assignment.
		toA := da <= db
		if len(left)+(n-len(left)-len(right)) <= m {
			toA = true
		} else if len(right)+(n-len(left)-len(right)) <= m {
			toA = false
		} else if len(left) >= n-m {
			toA = false
		} else if len(right) >= n-m {
			toA = true
		}
		if toA {
			left = append(left, entries[i])
			groupA.MaxMerge(ri) //nolint:errcheck
		} else {
			right = append(right, entries[i])
			groupB.MaxMerge(ri) //nolint:errcheck
		}
	}
	return left, right
}
