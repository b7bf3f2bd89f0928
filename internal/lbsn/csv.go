package lbsn

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// WriteCSV materializes the data set as two CSV files in dir:
// <name>_pois.csv (id,x,y,total) and <name>_checkins.csv (poi,unix_time).
// LoadCSV reads them back; cmd/datagen and cmd/tarquery use the pair to
// decouple data generation from experiments.
func (d *Dataset) WriteCSV(dir string) (poisPath, checkinsPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	poisPath = filepath.Join(dir, d.Spec.Name+"_pois.csv")
	checkinsPath = filepath.Join(dir, d.Spec.Name+"_checkins.csv")

	pf, err := os.Create(poisPath)
	if err != nil {
		return "", "", err
	}
	defer pf.Close()
	pw := bufio.NewWriter(pf)
	fmt.Fprintln(pw, "id,x,y,total")

	cf, err := os.Create(checkinsPath)
	if err != nil {
		return "", "", err
	}
	defer cf.Close()
	cw := bufio.NewWriter(cf)
	fmt.Fprintln(cw, "poi,unix_time")

	for i := range d.POIs {
		p := &d.POIs[i]
		fmt.Fprintf(pw, "%d,%.6f,%.6f,%d\n", p.ID, p.X, p.Y, p.Total())
		for _, ts := range p.Times {
			fmt.Fprintf(cw, "%d,%d\n", p.ID, ts)
		}
	}
	if err := pw.Flush(); err != nil {
		return "", "", err
	}
	if err := cw.Flush(); err != nil {
		return "", "", err
	}
	return poisPath, checkinsPath, nil
}

// LoadCSV reads a data set written by WriteCSV. The spec supplies the
// metadata (name, time span, thresholds) that the CSV files do not carry. A
// check-in before spec.Start is refused, as live ingest refuses it: no epoch
// of the grid that starts there contains it.
func LoadCSV(spec Spec, poisPath, checkinsPath string) (*Dataset, error) {
	pois, err := readPOIs(poisPath)
	if err != nil {
		return nil, err
	}
	byID := make(map[int64]*POI, len(pois))
	for i := range pois {
		byID[pois[i].ID] = &pois[i]
	}
	if err := readCheckIns(checkinsPath, byID, spec.Start); err != nil {
		return nil, err
	}
	for i := range pois {
		sort.Slice(pois[i].Times, func(a, b int) bool { return pois[i].Times[a] < pois[i].Times[b] })
	}
	spec.Locations = len(pois)
	d := &Dataset{
		Spec:  spec,
		POIs:  pois,
		World: spec.World(),
	}
	return d, nil
}

func readPOIs(path string) ([]POI, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	r.FieldsPerRecord = 4
	rows, err := readAll(r, path)
	if err != nil {
		return nil, err
	}
	pois := make([]POI, 0, len(rows))
	for _, row := range rows {
		id, err1 := strconv.ParseInt(row[0], 10, 64)
		x, err2 := strconv.ParseFloat(row[1], 64)
		y, err3 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("lbsn: malformed POI row %v in %s", row, path)
		}
		pois = append(pois, POI{ID: id, X: x, Y: y})
	}
	return pois, nil
}

func readCheckIns(path string, byID map[int64]*POI, start int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	r.FieldsPerRecord = 2
	rows, err := readAll(r, path)
	if err != nil {
		return err
	}
	for _, row := range rows {
		id, err1 := strconv.ParseInt(row[0], 10, 64)
		ts, err2 := strconv.ParseInt(row[1], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("lbsn: malformed check-in row %v in %s", row, path)
		}
		p, ok := byID[id]
		if !ok {
			return fmt.Errorf("lbsn: check-in for unknown POI %d in %s", id, path)
		}
		if ts < start {
			return fmt.Errorf("lbsn: check-in of POI %d at %d precedes epoch origin %d in %s", id, ts, start, path)
		}
		p.Times = append(p.Times, ts)
	}
	return nil
}

// readAll reads all rows, skipping the header.
func readAll(r *csv.Reader, path string) ([][]string, error) {
	var rows [][]string
	first := true
	for {
		row, err := r.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("lbsn: reading %s: %w", path, err)
		}
		if first {
			first = false
			continue // header
		}
		rows = append(rows, row)
	}
}
