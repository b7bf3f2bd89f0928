// Quickstart: index a handful of POIs with check-in histories, then answer
// a kNNTA query — the smallest complete use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	"tartree"
)

func main() {
	// A 100×100 world with one-hour epochs starting at t=0.
	tr, err := tartree.New(tartree.Options{
		World:       tartree.WorldRect(0, 0, 100, 100),
		EpochStart:  0,
		EpochLength: 3600,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Three cafés with their hourly visit histories (epoch start, end,
	// count). Zero-visit epochs are simply omitted.
	pois := []struct {
		p    tartree.POI
		hist []tartree.Record
	}{
		{tartree.POI{ID: 1, X: 20, Y: 30}, []tartree.Record{
			{Ts: 0, Te: 3600, Agg: 4}, {Ts: 3600, Te: 7200, Agg: 6}}},
		{tartree.POI{ID: 2, X: 60, Y: 65}, []tartree.Record{
			{Ts: 3600, Te: 7200, Agg: 21}}},
		{tartree.POI{ID: 3, X: 55, Y: 58}, []tartree.Record{
			{Ts: 0, Te: 3600, Agg: 2}}},
	}
	for _, e := range pois {
		if err := tr.InsertPOI(e.p, e.hist); err != nil {
			log.Fatal(err)
		}
	}

	// Live check-ins stream in and are folded into the index when their
	// epoch completes.
	for i := 0; i < 5; i++ {
		if err := tr.AddCheckIn(3, 7200+int64(i*60)); err != nil {
			log.Fatal(err)
		}
	}
	if err := tr.FlushEpochs(3 * 3600); err != nil {
		log.Fatal(err)
	}

	// Who is worth visiting near (50, 50), weighing recency of popularity
	// over the last two hours at 70%?
	results, stats, err := tr.QueryCtx(context.Background(), tartree.Query{
		X: 50, Y: 50,
		Iq:     tartree.Interval{Start: 3600, End: 3 * 3600},
		K:      2,
		Alpha0: 0.3,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("#%d POI %d at (%.0f,%.0f): score %.3f (distance part %.3f, aggregate %d visits)\n",
			i+1, r.POI.ID, r.POI.X, r.POI.Y, r.Score, r.S0, r.Agg)
	}
	fmt.Printf("answered with %d R-tree node accesses and %d TIA probes\n",
		stats.RTreeAccesses(), stats.Scored)
}
