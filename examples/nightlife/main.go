// Nightlife: the paper's motivating scenario — "find a nearby club that is
// gathering the most people in the last hour" (Section 1). A synthetic
// night unfolds minute by minute: clubs receive check-ins, epochs close
// every 15 minutes, and a user asks the same question at different hours,
// getting different answers as the crowd moves.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"tartree"
)

const minute = int64(60)

func main() {
	r := rand.New(rand.NewSource(2015))
	tr, err := tartree.New(tartree.Options{
		World:       tartree.WorldRect(0, 0, 10, 10), // a 10×10 km city
		EpochStart:  0,
		EpochLength: 15 * minute,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 40 clubs across town; each has a "peak hour" when its crowd arrives.
	type club struct {
		id   int64
		name string
		peak float64 // hour of the night with the largest crowd
		size float64 // how big the club is
	}
	clubs := make([]club, 40)
	for i := range clubs {
		clubs[i] = club{
			id:   int64(i + 1),
			name: fmt.Sprintf("club-%02d", i+1),
			peak: 1 + 6*r.Float64(),
			size: 20 + 180*r.Float64(),
		}
		if err := tr.InsertPOI(tartree.POI{
			ID: clubs[i].id, X: r.Float64() * 10, Y: r.Float64() * 10,
		}, nil); err != nil {
			log.Fatal(err)
		}
	}

	// Simulate eight hours of night life: per minute, each club receives
	// Poisson-ish arrivals peaking at its peak hour.
	for m := int64(0); m < 8*60; m++ {
		hour := float64(m) / 60
		for _, c := range clubs {
			rate := c.size / 60 * math.Exp(-0.5*math.Pow((hour-c.peak)/1.2, 2))
			n := 0
			for p := rate; p > 0; p-- {
				if r.Float64() < p {
					n++
				}
			}
			for i := 0; i < n; i++ {
				if err := tr.AddCheckIn(c.id, m*minute+int64(r.Intn(60))); err != nil {
					log.Fatal(err)
				}
			}
		}
		if m%15 == 14 {
			if err := tr.FlushEpochs((m + 1) * minute); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The user stands at the city center and asks at 2am, 4am and 6am:
	// which club gathered the most people in the last hour, preferring
	// nearby ones (α0 = 0.3, the paper's default)?
	for _, hour := range []int64{2, 4, 6} {
		now := hour * 60 * minute
		results, _, err := tr.QueryCtx(context.Background(), tartree.Query{
			X: 5, Y: 5,
			Iq:     tartree.Interval{Start: now - 60*minute, End: now},
			K:      3,
			Alpha0: 0.3,
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("at %d:00 — top clubs by crowd in the last hour:\n", hour)
		for i, res := range results {
			fmt.Printf("  %d. %s at (%.1f, %.1f): %d check-ins, score %.3f\n",
				i+1, clubs[res.POI.ID-1].name, res.POI.X, res.POI.Y, res.Agg, res.Score)
		}
	}
}
