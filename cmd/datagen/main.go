// Command datagen materializes one of the calibrated synthetic LBSN data
// sets (NYC, LA, GW, GS) as CSV files: <name>_pois.csv with one row per POI
// and <name>_checkins.csv with one row per check-in. cmd/tarquery can load
// the pair back with its -pois/-checkins flags.
//
// With -shards N -shard-map map.json it additionally writes an STR-style
// spatial partition of the effective POI set (the ones tarserve would
// index) for a sharded deployment: each shard process loads the map with
// -shard-of i/N -shard-map map.json, the coordinator needs no map.
package main

import (
	"flag"
	"fmt"
	"os"

	"tartree/internal/lbsn"
	"tartree/internal/shard"
)

func main() {
	var (
		name    = flag.String("dataset", "GS", "data set name (NYC, LA, GW, GS)")
		scale   = flag.Float64("scale", 0.1, "scale in (0,1]")
		out     = flag.String("out", ".", "output directory")
		stream  = flag.String("checkins", "", "also write the time-ordered check-in stream (CSV: poi,id,ts) to this file, for replay through the ingest path")
		shards  = flag.Int("shards", 0, "with -shard-map: number of spatial shards to partition the effective POIs into")
		mapFile = flag.String("shard-map", "", "write the shard partition map as JSON to this file (requires -shards)")
	)
	flag.Parse()
	if (*shards > 0) != (*mapFile != "") {
		fatal(fmt.Errorf("-shards and -shard-map must be given together"))
	}

	spec, err := lbsn.SpecFor(*name, *scale)
	if err != nil {
		fatal(err)
	}
	d, err := lbsn.Generate(spec)
	if err != nil {
		fatal(err)
	}
	poisPath, checkinsPath, err := d.WriteCSV(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d POIs to %s and %d check-ins to %s\n",
		len(d.POIs), poisPath, d.TotalCheckIns(), checkinsPath)
	if *stream != "" {
		f, err := os.Create(*stream)
		if err != nil {
			fatal(err)
		}
		cs := d.CheckInStream()
		if err := lbsn.WriteCheckInStream(f, cs); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d-record check-in stream to %s\n", len(cs), *stream)
	}
	if *shards > 0 {
		// Partition exactly the POIs tarserve will index (the effective
		// set, with Build's default epoch length and no cutoff), so the
		// shard populations match the served indexes.
		pois := d.EffectivePOIs(0, 0)
		m, err := shard.Partition(pois, *shards, d.World)
		if err != nil {
			fatal(err)
		}
		if err := m.Save(*mapFile); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d-shard map over %d effective POIs to %s\n", *shards, len(pois), *mapFile)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
	os.Exit(1)
}
