package lbsn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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

// sortedHistory is History as it was when it required ascending times: one
// pass that extends the last record or starts the next.
func sortedHistory(times []int64, epochStart, epochLength, cutoff int64) []tia.Record {
	if cutoff == 0 {
		cutoff = math.MaxInt64
	}
	var recs []tia.Record
	for _, t := range times {
		if t >= cutoff {
			break
		}
		ts := epochStart + (t-epochStart)/epochLength*epochLength
		if n := len(recs); n > 0 && recs[n-1].Ts == ts {
			recs[n-1].Agg++
			continue
		}
		recs = append(recs, tia.Record{Ts: ts, Te: ts + epochLength, Agg: 1})
	}
	return recs
}

// TestHistoryAnyOrder checks that History on shuffled times returns exactly
// the records the sorted pass returns, for dense POIs (the counting array),
// sparse ones (more epochs than check-ins: the sort fallback), 1-, 7- and
// 28-day epochs, and cutoffs before, inside and after the times.
func TestHistoryAnyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	start := GS.Start
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(400)
		span := (1 + r.Int63n(500)) * Day
		if trial%3 == 0 {
			n = 1 + r.Intn(4) // a few check-ins over a long span
		}
		times := make([]int64, n)
		for i := range times {
			times[i] = start + r.Int63n(span)
		}
		if trial%5 == 0 && n > 1 {
			times[1] = times[0] // duplicate instants
		}
		sorted := slices.Clone(times)
		slices.Sort(sorted)
		r.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
		for _, epoch := range []int64{Day, 7 * Day, 28 * Day} {
			for _, cutoff := range []int64{0, start, start + span/2, sorted[n-1], sorted[n-1] + 1} {
				want := sortedHistory(sorted, start, epoch, cutoff)
				got := History(&POI{Times: times}, start, epoch, cutoff)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %d check-ins over %d days, epoch %d days, cutoff %d: got %v, want %v",
						trial, n, span/Day, epoch/Day, cutoff, got, want)
				}
			}
		}
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
		if err := want.SaveSnapshot(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.SaveSnapshot(&b); err != nil {
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

// TestSpecBuildGolden pins the tree Spec.Build makes, not only its agreement
// with Generate+Build: a SHA-256 of the v3 snapshot per grouping, with a Keep
// filter, with a cutoff, on a three-level GW tree, and of the empty replay
// bases BuildEmpty makes. A change to the R* choice, the split or the
// bucketing that moves one entry fails here even when both build paths move
// together. The values were recorded before History counted epochs and the
// leaf choice skipped overlap sums, and the empty ones from
// Generate(spec).BuildEmpty.
func TestSpecBuildGolden(t *testing.T) {
	gs := GS.Scaled(0.05)
	keep := func(p core.POI) bool { return p.X < 50 }
	cases := []struct {
		name  string
		spec  Spec
		o     BuildOptions
		empty bool
		want  string
	}{
		{"tar", gs, BuildOptions{Grouping: core.TAR3D}, false, "33704130fe4f00d6fe264ce13f4e6aa0d4f9c2c87e1f05ebda89197a6461488a"},
		{"spa", gs, BuildOptions{Grouping: core.IndSpa}, false, "8d8fe7af4e3927686b16a988520d07a1333982e3e5b9b59e44966b56d544f79a"},
		{"agg", gs, BuildOptions{Grouping: core.IndAgg}, false, "b4ff8d673692eb45c23bb1097db335acc5c8388d4f07824545e2b2a1c45dc3a2"},
		{"keep", gs, BuildOptions{Keep: keep}, false, "79ce115e3964adf53baec29abb099441efdb6ad8dd6f2e4fb76509adf4de8cea"},
		{"cutoff", gs, BuildOptions{Cutoff: gs.Start + (gs.End-gs.Start)*3/5, EpochLength: Day}, false, "26a9df0a8b0360bd5162e5af04bd594e2c8c450b77b0cf03cacb5d36206e6a82"},
		{"gw-tar", GW.Scaled(0.25), BuildOptions{Grouping: core.TAR3D}, false, "8decbc6e63f95a57609e98dbd4566f587df0def49930194431170ac6b3138e8b"},
		{"empty", gs, BuildOptions{}, true, "cd5d9ec43bbc5984c432d1802377bb6a0c21147d08bad97db4b3523b7af5a807"},
		{"empty-keep", gs, BuildOptions{Keep: keep}, true, "f410d337f3adf54a63ac8c6e873ffdbfdc3e23290d4205027f736395f2b081da"},
	}
	for _, c := range cases {
		build := c.spec.Build
		if c.empty {
			build = c.spec.BuildEmpty
		}
		tr, err := build(c.o)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := tr.SaveSnapshot(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s (%d POIs): snapshot SHA-256 %s, want %s", c.name, tr.Len(), got, c.want)
		}
	}
}

// failingFactory is an in-memory TIA factory whose New fails from its
// (after+1)-th call on.
type failingFactory struct {
	*tia.MemFactory
	after, calls int
}

var errFactory = errors.New("factory failed")

func (f *failingFactory) New(recs []tia.Record) (*tia.Index, error) {
	if f.calls++; f.calls > f.after {
		return nil, errFactory
	}
	return f.MemFactory.New(recs)
}

// TestSpecBuildErrorStopsGenerator: an insert that fails part-way makes
// Spec.Build return its error, as does a spec the generator refuses, and no
// goroutine the build started outlives it, on success or on either error.
func TestSpecBuildErrorStopsGenerator(t *testing.T) {
	spec := GW.Scaled(0.05) // ~730 effective POIs: many batches
	// settled waits up to a second for the goroutine count to fall to at
	// most limit, since an ended goroutine may take a moment to be counted
	// out, and returns it.
	settled := func(limit int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200 && n > limit; i++ {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	before := runtime.NumGoroutine()
	for _, after := range []int{0, 1, 100, 400} {
		_, err := spec.Build(BuildOptions{TIA: &failingFactory{MemFactory: tia.NewMemFactory(), after: after}})
		if !errors.Is(err, errFactory) {
			t.Fatalf("factory failing after %d TIAs: err = %v, want %v", after, err, errFactory)
		}
		if n := settled(before); n > before {
			t.Fatalf("factory failing after %d TIAs: %d goroutines after Build, %d before", after, n, before)
		}
	}
	bad := spec
	bad.End = bad.Start
	if _, err := bad.Build(BuildOptions{}); err == nil || !strings.Contains(err.Error(), "invalid spec") {
		t.Fatalf("invalid spec: err = %v", err)
	}
	if tr, err := spec.Build(BuildOptions{}); err != nil || tr.Len() == 0 {
		t.Fatalf("build: err %v", err)
	}
	if n := settled(before); n > before {
		t.Fatalf("%d goroutines after the builds, %d before", n, before)
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

// TestLoadCSVRejectsPreOriginCheckIn checks that a check-in before the
// spec's Start is refused, naming the POI and the time, as live ingest
// refuses it, instead of being filed in the first epoch, which does not
// contain it.
func TestLoadCSVRejectsPreOriginCheckIn(t *testing.T) {
	dir := t.TempDir()
	pp, cp := filepath.Join(dir, "p.csv"), filepath.Join(dir, "c.csv")
	early := NYC.Start - 3600
	if err := os.WriteFile(pp, []byte("id,x,y,total\n7,1,2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := fmt.Sprintf("poi,unix_time\n7,%d\n7,%d\n", NYC.Start, early)
	if err := os.WriteFile(cp, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCSV(NYC, pp, cp)
	if err == nil {
		t.Fatal("check-in before the epoch origin accepted")
	}
	for _, want := range []string{"POI 7", strconv.FormatInt(early, 10)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestLoadCSVNaNPOIRefusedByBuild: a POI row whose x reads "NaN" parses
// (strconv accepts it), and the build refuses to index that POI, naming it,
// instead of filing an entry no distance can rank.
func TestLoadCSVNaNPOIRefusedByBuild(t *testing.T) {
	dir := t.TempDir()
	pp, cp := filepath.Join(dir, "p.csv"), filepath.Join(dir, "c.csv")
	if err := os.WriteFile(pp, []byte("id,x,y,total\n3,1,2,1\n7,NaN,2,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := fmt.Sprintf("poi,unix_time\n3,%d\n7,%d\n", NYC.Start, NYC.Start)
	if err := os.WriteFile(cp, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := NYC
	spec.MinEffective = 1 // both POIs are indexed
	d, err := LoadCSV(spec, pp, cp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Build(BuildOptions{Grouping: core.TAR3D})
	if err == nil || !strings.Contains(err.Error(), "POI 7") {
		t.Fatalf("build over a NaN POI: err = %v, want a refusal naming POI 7", err)
	}
}

// BenchmarkSpecBuild times the start-up build tarserve runs: generate GW at
// scale 0.1 and index each effective POI into a TAR3D tree as it is drawn.
func BenchmarkSpecBuild(b *testing.B) {
	spec := GW.Scaled(0.1)
	for i := 0; i < b.N; i++ {
		if _, err := spec.Build(BuildOptions{Grouping: core.TAR3D}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlushEpoch is one epoch flush on a serving tree and the search
// after it: GW at scale 0.1 built and compiled, then per iteration 200
// check-ins of POIs drawn round-robin land in the newest epoch, the epoch is
// flushed, and one query (k = 10, α0 = 0.3, the last 128 days) runs. The
// flush patches the newest column of the layout's columns; the search reads
// them as they stand.
func BenchmarkFlushEpoch(b *testing.B) {
	spec := GW.Scaled(0.1)
	tr, err := spec.Build(BuildOptions{Grouping: core.TAR3D})
	if err != nil {
		b.Fatal(err)
	}
	tr.Freeze()
	var ids []int64
	tr.POIs(func(p core.POI, _ int64) bool {
		ids = append(ids, p.ID)
		return true
	})
	slices.Sort(ids)
	g := tr.GlobalRecords()
	last := g[len(g)-1]
	q := core.Query{X: 50, Y: 50, K: 10, Alpha0: 0.3, Iq: tia.Interval{Start: spec.End - 128*Day, End: spec.End}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 200; j++ {
			if err := tr.AddCheckIn(ids[(i*200+j)%len(ids)], last.Ts+int64(j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tr.FlushEpochs(last.Te); err != nil {
			b.Fatal(err)
		}
		if _, _, err := tr.QueryCtx(context.Background(), q, nil); err != nil {
			b.Fatal(err)
		}
	}
}
