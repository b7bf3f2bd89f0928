package lbsn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"tartree/internal/core"
	"tartree/internal/powerlaw"
	"tartree/internal/tia"
)

func smallSpec() Spec {
	s := NYC.Scaled(0.08) // ~5800 POIs
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.POIs) != len(b.POIs) {
		t.Fatal("different POI counts")
	}
	for i := range a.POIs {
		if a.POIs[i].X != b.POIs[i].X || a.POIs[i].Total() != b.POIs[i].Total() {
			t.Fatalf("POI %d differs between runs", i)
		}
	}
}

// TestGenerateGolden pins Generate's exact output: a SHA-256 over every
// POI's ID, coordinates and check-in times. Any change to the RNG draws, their
// order or the sort of a POI's times changes the data set every experiment,
// test and server is built from, and fails here.
func TestGenerateGolden(t *testing.T) {
	const want = "6ce44f6ca418902a2d676bfdc562f4144f882d4d825523f75ded571d7ab2f376"
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for i := range d.POIs {
		p := &d.POIs[i]
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(p.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Times)))
		for _, ts := range p.Times {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ts))
		}
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Generate(%s ×0.08) hashes to %s, want %s", smallSpec().Name, got, want)
	}
}

func TestGenerateBasicShape(t *testing.T) {
	spec := smallSpec()
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.POIs) != spec.Locations {
		t.Fatalf("POIs = %d, want %d", len(d.POIs), spec.Locations)
	}
	// Check-in total within 40% of the calibration target (the mixture is
	// approximate).
	got := float64(d.TotalCheckIns())
	want := float64(spec.CheckIns)
	if got < want*0.6 || got > want*1.4 {
		t.Errorf("check-ins = %.0f, want ≈%.0f", got, want)
	}
	for i := range d.POIs {
		p := &d.POIs[i]
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("POI %d outside world: (%g, %g)", i, p.X, p.Y)
		}
		if p.Total() < 1 {
			t.Fatalf("POI %d has no check-ins", i)
		}
		for j, ts := range p.Times {
			if ts < spec.Start || ts >= spec.End {
				t.Fatalf("POI %d check-in %d out of span", i, ts)
			}
			if j > 0 && ts < p.Times[j-1] {
				t.Fatalf("POI %d times unsorted", i)
			}
		}
	}
}

// The generated tail must fit a power law with roughly the spec's β —
// this is what makes the synthetic data a valid stand-in for Table 2.
func TestGeneratedTailFollowsPowerLaw(t *testing.T) {
	spec := NYC.Scaled(0.3)
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := powerlaw.Estimate(d.Totals(), powerlaw.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Beta-spec.Beta) > 0.5 {
		t.Errorf("fitted β = %.2f, spec β = %.2f", fit.Beta, spec.Beta)
	}
	p, err := powerlaw.PValue(d.Totals(), fit, 40, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.1 {
		t.Errorf("p-value = %.3f: generated data rejected as power law", p)
	}
}

func TestSpatialClustering(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Grid occupancy: clustered data leaves many cells empty and packs
	// many POIs into few cells, unlike uniform placement.
	const g = 20
	var cells [g][g]int
	for i := range d.POIs {
		x := int(d.POIs[i].X / 100 * g)
		y := int(d.POIs[i].Y / 100 * g)
		if x >= g {
			x = g - 1
		}
		if y >= g {
			y = g - 1
		}
		cells[x][y]++
	}
	max, nonEmpty := 0, 0
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			if cells[i][j] > 0 {
				nonEmpty++
			}
			if cells[i][j] > max {
				max = cells[i][j]
			}
		}
	}
	mean := float64(len(d.POIs)) / (g * g)
	if float64(max) < 5*mean {
		t.Errorf("max cell %d vs mean %.1f: not clustered", max, mean)
	}
}

func TestHistoryBucketing(t *testing.T) {
	p := POI{ID: 1, Times: []int64{0, 5, 9, 10, 25, 95}}
	recs := History(&p, 0, 10, 0)
	want := []tia.Record{{Ts: 0, Te: 10, Agg: 3}, {Ts: 10, Te: 20, Agg: 1}, {Ts: 20, Te: 30, Agg: 1}, {Ts: 90, Te: 100, Agg: 1}}
	if len(recs) != len(want) {
		t.Fatalf("recs = %v", recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("recs = %v, want %v", recs, want)
		}
	}
	// Cutoff drops later check-ins.
	cut := History(&p, 0, 10, 10)
	if len(cut) != 1 || cut[0].Agg != 3 {
		t.Fatalf("cut = %v", cut)
	}
}

func TestSnapshotGrowth(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		cut := d.SnapshotEnd(frac)
		var n int64
		for i := range d.POIs {
			for _, ts := range d.POIs[i].Times {
				if ts < cut {
					n++
				}
			}
		}
		if n <= prev {
			t.Errorf("snapshot %.0f%%: %d check-ins, not growing", frac*100, n)
		}
		prev = n
	}
}

func TestBuildTree(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Build(BuildOptions{Grouping: core.TAR3D})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no effective POIs indexed")
	}
	// Effective POIs are those with >= MinEffective check-ins.
	want := 0
	for i := range d.POIs {
		if d.POIs[i].Total() >= d.Spec.MinEffective {
			want++
		}
	}
	if tr.Len() != want {
		t.Fatalf("indexed %d POIs, want %d effective", tr.Len(), want)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Queries run and return k results.
	qs := d.Queries(20, 10, 0.3, 7)
	for _, q := range qs {
		res, _, err := tr.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 10 {
			t.Fatalf("query returned %d results", len(res))
		}
	}
}

func TestQueriesShape(t *testing.T) {
	d, err := Generate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	qs := d.Queries(200, 10, 0.3, 1)
	for i, q := range qs {
		days := (q.Iq.End - q.Iq.Start) / Day
		// Interval lengths are powers of two between 1 and 512 days
		// (clamped to the span).
		if days < 1 || days > 512 {
			t.Fatalf("query %d: %d days", i, days)
		}
		if q.Iq.Start < d.Spec.Start || q.Iq.End > d.Spec.End {
			t.Fatalf("query %d: interval outside span", i)
		}
		if q.K != 10 || q.Alpha0 != 0.3 {
			t.Fatalf("query %d: wrong parameters", i)
		}
	}
}

func TestSpecHelpers(t *testing.T) {
	if len(Specs()) != 4 {
		t.Fatal("want 4 specs")
	}
	s, err := SpecByName("GW")
	if err != nil || s.Name != "GW" {
		t.Fatalf("SpecByName: %v %v", s, err)
	}
	if _, err := SpecByName("XX"); err == nil {
		t.Fatal("unknown name accepted")
	}
	h := GW.Scaled(0.5)
	if h.Locations != GW.Locations/2 {
		t.Errorf("scaled locations = %d", h.Locations)
	}
	if bad := GW.Scaled(-1); bad.Locations != GW.Locations {
		t.Errorf("invalid scale should be ignored")
	}
}

func TestSpecFor(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
		ok    bool
	}{
		{"GS", 0.5, true},
		{"GS", 1, true},
		{"NYC", 1e-3, true},
		{"GS", 0, false},
		{"GS", -0.1, false},
		{"GS", 1.0001, false},
		{"GS", 2, false},
		{"GS", math.NaN(), false},
		{"GS", math.Inf(1), false},
		{"XX", 0.5, false},
	} {
		s, err := SpecFor(c.name, c.scale)
		if (err == nil) != c.ok {
			t.Errorf("SpecFor(%q, %g): err = %v, want ok = %v", c.name, c.scale, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		base, _ := SpecByName(c.name)
		if want := base.Scaled(c.scale); s != want {
			t.Errorf("SpecFor(%q, %g) = %+v, want %+v", c.name, c.scale, s, want)
		}
	}
}

// TestSpecBuildMatchesGenerate pins the streaming build to the materializing
// one: for every grouping, a Keep filter and a cutoff, Spec.Build writes the
// same v3 snapshot bytes as Generate followed by Dataset.Build.
func TestSpecBuildMatchesGenerate(t *testing.T) {
	spec := GS.Scaled(0.02)
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]BuildOptions{
		"tar":    {Grouping: core.TAR3D},
		"spa":    {Grouping: core.IndSpa},
		"agg":    {Grouping: core.IndAgg},
		"keep":   {Keep: func(p core.POI) bool { return p.X < 50 }},
		"cutoff": {Cutoff: d.SnapshotEnd(0.6), EpochLength: Day},
	}
	lens := map[string]int{}
	for name, o := range cases {
		want, err := d.Build(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Build(o)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := want.SaveSnapshotV3(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.SaveSnapshotV3(&b); err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: Spec.Build (%d POIs, %d B) differs from Generate+Build (%d POIs, %d B)",
				name, got.Len(), b.Len(), want.Len(), a.Len())
		}
		lens[name] = want.Len()
	}
	// The filters must bite, or the last two cases prove nothing new.
	if lens["keep"] >= lens["tar"] || lens["cutoff"] >= lens["tar"] {
		t.Fatalf("filters selected nothing fewer: %v", lens)
	}
	if _, err := (Spec{}).Build(BuildOptions{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestGenerateInvalidSpec(t *testing.T) {
	if _, err := Generate(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	spec := NYC.Scaled(0.01)
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pp, cp, err := d.WriteCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(spec, pp, cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.POIs) != len(d.POIs) {
		t.Fatalf("POIs = %d, want %d", len(got.POIs), len(d.POIs))
	}
	if got.TotalCheckIns() != d.TotalCheckIns() {
		t.Fatalf("check-ins = %d, want %d", got.TotalCheckIns(), d.TotalCheckIns())
	}
	// Per-POI identity (coordinates round to 6 decimals in the CSV).
	for i := range d.POIs {
		a, b := &d.POIs[i], &got.POIs[i]
		if a.ID != b.ID || len(a.Times) != len(b.Times) {
			t.Fatalf("POI %d mismatch", a.ID)
		}
		if math.Abs(a.X-b.X) > 1e-5 || math.Abs(a.Y-b.Y) > 1e-5 {
			t.Fatalf("POI %d coords drifted", a.ID)
		}
		for j := range a.Times {
			if a.Times[j] != b.Times[j] {
				t.Fatalf("POI %d time %d mismatch", a.ID, j)
			}
		}
	}
	// A tree built from the loaded data answers identically.
	tr1, err := d.Build(BuildOptions{Grouping: core.TAR3D})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := got.Build(BuildOptions{Grouping: core.TAR3D})
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Len() != tr2.Len() {
		t.Fatalf("trees differ: %d vs %d POIs", tr1.Len(), tr2.Len())
	}
	for _, q := range d.Queries(10, 5, 0.3, 3) {
		r1, _, err := tr1.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := tr2.QueryCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r1 {
			if math.Abs(r1[i].Score-r2[i].Score) > 1e-6 {
				t.Fatalf("scores differ at %d", i)
			}
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(NYC, "/nonexistent/p.csv", "/nonexistent/c.csv"); err == nil {
		t.Fatal("missing file accepted")
	}
}
