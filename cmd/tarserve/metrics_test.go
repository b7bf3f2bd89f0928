package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/shard"
)

// catalogRoles are the server roles METRICS.md's Roles column names; "all"
// there stands for every one of them.
var catalogRoles = []string{"single", "leader", "follower", "shard", "coordinator"}

// repoRoot is where METRICS.md, README.md and benchmark/ live, relative to
// this package.
const repoRoot = "../.."

// family is one series family scraped from /metrics: a histogram's _bucket,
// _sum and _count lines are one family, and le is not part of a label set.
type family struct {
	typ    string
	labels map[string]bool // full label sets as "{k=\"v\",...}", "" for none
	roles  map[string]bool
}

// catalogRow is one row of METRICS.md.
type catalogRow struct {
	name, typ, reader string
	labels, roles     []string
}

// TestMetricsCatalog starts every role the way main does (newRegistry, then
// start), drives one query through each and one ingest into the leader,
// scrapes /metrics, and checks the page against METRICS.md: every series
// has a row listing its exact label set, type and roles; every row is
// exported by some role; and every row's reader resolves to a test or a
// benchmark file that contains the series name, or to a README section that
// mentions it.
func TestMetricsCatalog(t *testing.T) {
	scraped := scrapeRoles(t)
	rows := readCatalog(t)
	byName := make(map[string]catalogRow, len(rows))
	for _, r := range rows {
		if _, dup := byName[r.name]; dup {
			t.Errorf("METRICS.md lists %s twice", r.name)
		}
		byName[r.name] = r
	}

	names := make([]string, 0, len(scraped))
	for name := range scraped {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := scraped[name]
		row, ok := byName[name]
		if !ok {
			var sets []string
			for ls := range f.labels {
				sets = append(sets, ls)
			}
			sort.Strings(sets)
			t.Errorf("series %s has no row in METRICS.md: %s, label sets %q, roles %s",
				name, f.typ, sets, strings.Join(setRoles(f.roles), ", "))
			continue
		}
		if row.typ != f.typ {
			t.Errorf("%s: METRICS.md says %s, /metrics says %s", name, row.typ, f.typ)
		}
		for ls := range f.labels {
			if !slices.Contains(row.labels, ls) {
				t.Errorf("%s: label set %q is not listed in METRICS.md", name, ls)
			}
		}
		if got, want := strings.Join(setRoles(f.roles), ", "), strings.Join(row.roles, ", "); got != want {
			t.Errorf("%s: exported by %s, METRICS.md says %s", name, got, want)
		}
	}
	readers := newReaderIndex(t)
	for _, r := range rows {
		if _, ok := scraped[r.name]; !ok {
			t.Errorf("METRICS.md row %s: no role exports it", r.name)
		}
		if err := readers.resolve(r.reader, r.name); err != nil {
			t.Errorf("METRICS.md row %s: reader %s: %v", r.name, r.reader, err)
		}
	}
}

// scrapeRoles runs the five roles — a single node, a durable replication
// leader and its follower, two shards and their coordinator — and returns
// the families their /metrics pages export, each with the roles that
// export it.
func scrapeRoles(t *testing.T) map[string]*family {
	t.Helper()
	spec, err := lbsn.SpecFor("GS", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lbsn.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.Partition(d.EffectivePOIs(0, 0), 2, d.World)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	base := config{spec: spec, scale: 0.02, grouping: core.TAR3D, cacheBytes: 64 << 20}
	servers := map[string][]*server{}
	run := func(role string, cfg config) string {
		log := slog.New(slog.NewTextHandler(io.Discard, nil))
		srv := newPendingServer(newRegistry(), obs.NewTraceRing(8), log, 0)
		closeRole, err := start(ctx, &cfg, srv, log, func() { t.Errorf("%s: replication tail failed", role) })
		if err != nil {
			t.Fatalf("starting the %s: %v", role, err)
		}
		hs := httptest.NewServer(srv)
		// Cleanups run last-started first: a follower stops before its
		// leader, and the role's context ends before its store closes.
		t.Cleanup(func() {
			cancel()
			hs.Close()
			if err := closeRole(); err != nil {
				t.Errorf("closing the %s: %v", role, err)
			}
		})
		servers[role] = append(servers[role], srv)
		return hs.URL
	}

	run("single", base)
	leader := base
	leader.walDir, leader.replTok, leader.noSync = t.TempDir(), "catalog-secret", true
	leaderURL := run("leader", leader)
	follower := leader
	follower.walDir, follower.follow = t.TempDir(), leaderURL
	run("follower", follower)
	var shardURLs []string
	for i := 0; i < m.N; i++ {
		sh := base
		sh.shardIdx, sh.shardN, sh.shardMap = i, m.N, m
		shardURLs = append(shardURLs, run("shard", sh))
	}
	coord := base
	coord.shards = shardURLs
	run("coordinator", coord)

	ls := servers["leader"][0]
	var poi int64 = -1
	ls.tree.POIs(func(p core.POI, _ int64) bool { poi = p.ID; return false })
	if code, body := post(t, ls, "/v1/ingest", fmt.Sprintf(`{"poi":%d,"ts":%d}`, poi, spec.End+100)); code != 200 {
		t.Fatalf("leader ingest: %d %s", code, body)
	}
	// The coordinator's query fans out to the shards, so it goes last.
	for _, role := range catalogRoles {
		for _, srv := range servers[role] {
			if code, body := get(t, srv, "/v1/query?x=50&y=50&k=5&days=128&explain=1"); code != 200 {
				t.Fatalf("%s query: %d %s", role, code, body)
			}
		}
	}

	scraped := map[string]*family{}
	for _, role := range catalogRoles {
		for _, srv := range servers[role] {
			code, body := get(t, srv, "/metrics")
			if code != 200 {
				t.Fatalf("%s /metrics: %d", role, code)
			}
			parseExposition(t, role, body, scraped)
		}
	}
	return scraped
}

var leLabel = regexp.MustCompile(`,?le="[^"]*"$`)

// parseExposition folds one /metrics page, exported by role, into fams.
func parseExposition(t *testing.T, role, page string, fams map[string]*family) {
	t.Helper()
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(decl, " ")
			types[name] = typ
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("%s: malformed /metrics line %q", role, line)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		labels = strings.TrimSuffix(labels, "}")
		if types[name] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
					name, labels = base, leLabel.ReplaceAllString(labels, "")
				}
			}
		}
		if types[name] == "" {
			t.Fatalf("%s: series %q has no TYPE line", role, line)
		}
		if labels != "" {
			labels = "{" + labels + "}"
		}
		f := fams[name]
		if f == nil {
			f = &family{typ: types[name], labels: map[string]bool{}, roles: map[string]bool{}}
			fams[name] = f
		}
		f.labels[labels] = true
		f.roles[role] = true
	}
}

// setRoles lists a role set in catalogRoles order, as "all" when it holds
// every role.
func setRoles(set map[string]bool) []string {
	var out []string
	for _, r := range catalogRoles {
		if set[r] {
			out = append(out, r)
		}
	}
	if len(out) == len(catalogRoles) {
		return []string{"all"}
	}
	return out
}

// readCatalog parses METRICS.md's table: one row per series family,
//
//	| `name` | type | `{label sets}` or — | roles | reader |
func readCatalog(t *testing.T) []catalogRow {
	t.Helper()
	f, err := os.Open(filepath.Join(repoRoot, "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []catalogRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 5 {
			t.Fatalf("METRICS.md row has %d cells, want 5: %s", len(cells), line)
		}
		r := catalogRow{name: strings.Trim(cells[0], "`"), typ: cells[1], reader: cells[4]}
		if cells[2] == "—" {
			r.labels = []string{""}
		} else {
			for _, ls := range strings.Split(cells[2], ", ") {
				r.labels = append(r.labels, strings.Trim(ls, "`"))
			}
		}
		for _, role := range strings.Split(cells[3], ", ") {
			if role != "all" && !slices.Contains(catalogRoles, role) {
				t.Errorf("METRICS.md row %s: unknown role %q", r.name, role)
			}
			r.roles = append(r.roles, role)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("METRICS.md holds no rows")
	}
	return rows
}

// readerIndex resolves a row's reader: test:TestX names a test whose file
// contains the series name, benchmark:<file> a file under benchmark/ that
// contains it, and README#anchor a README heading whose section mentions it.
type readerIndex struct {
	testFiles map[string]string // test name → the contents of the files declaring it
	readme    map[string]string // heading anchor → its section's text
}

var testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

func newReaderIndex(t *testing.T) *readerIndex {
	t.Helper()
	ix := &readerIndex{testFiles: map[string]string{}, readme: map[string]string{}}
	err := filepath.WalkDir(repoRoot, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(b), -1) {
			ix.testFiles[m[1]] += string(b)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(repoRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var anchor string
	fenced := false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if !fenced && strings.HasPrefix(line, "#") {
			anchor = headingAnchor(strings.TrimLeft(line, "# "))
			continue
		}
		ix.readme[anchor] += line + "\n"
	}
	return ix
}

// headingAnchor is the fragment GitHub gives a heading: lower case, spaces
// to hyphens, punctuation other than - and _ dropped.
func headingAnchor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}

func (ix *readerIndex) resolve(reader, series string) error {
	if name, ok := strings.CutPrefix(reader, "test:"); ok {
		src, ok := ix.testFiles[name]
		switch {
		case !ok:
			return fmt.Errorf("no test %s", name)
		case !strings.Contains(src, series):
			return fmt.Errorf("the file of %s does not contain %s", name, series)
		}
		return nil
	}
	if file, ok := strings.CutPrefix(reader, "benchmark:"); ok {
		b, err := os.ReadFile(filepath.Join(repoRoot, "benchmark", filepath.Base(file)))
		if err != nil {
			return err
		}
		if !strings.Contains(string(b), series) {
			return fmt.Errorf("benchmark/%s does not contain %s", file, series)
		}
		return nil
	}
	if anchor, ok := strings.CutPrefix(reader, "README#"); ok {
		section, ok := ix.readme[anchor]
		switch {
		case !ok:
			return fmt.Errorf("README.md has no heading #%s", anchor)
		case !strings.Contains(section, series):
			return fmt.Errorf("README.md section #%s does not mention %s", anchor, series)
		}
		return nil
	}
	return fmt.Errorf("want test:TestX, benchmark:<file> or README#anchor")
}
