package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tartree"
	"tartree/internal/lbsn"
)

// TestMain runs main instead of the tests when the smoke test re-executes
// the test binary as the command.
func TestMain(m *testing.M) {
	if os.Getenv("TARQUERY_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTarqueryAnswersLikeTheTree: tarquery at a tiny scale prints the
// ranking Tree.QueryCtx gives for the same spec and query — each row's POI
// and score, in order.
func TestTarqueryAnswersLikeTheTree(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-dataset", "GS", "-scale", "0.02", "-x", "40", "-y", "60",
		"-k", "5", "-alpha", "0.3", "-days", "64", "-cache-bytes", "0")
	cmd.Env = append(os.Environ(), "TARQUERY_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tarquery: %v\n%s", err, out)
	}

	spec, err := lbsn.SpecFor("GS", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Build(lbsn.BuildOptions{Grouping: tartree.TAR3D})
	if err != nil {
		t.Fatal(err)
	}
	q := tartree.Query{X: 40, Y: 60, K: 5, Alpha0: 0.3,
		Iq: tartree.Interval{Start: spec.End - 64*lbsn.Day, End: spec.End}}
	want, _, err := tr.QueryCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 5 {
		t.Fatalf("the tree answers %d results", len(want))
	}
	var rows []string
	for _, line := range strings.Split(string(out), "\n") {
		var rank, poi int
		var score float64
		if n, _ := fmt.Sscanf(line, "%d %d %f", &rank, &poi, &score); n == 3 {
			rows = append(rows, fmt.Sprintf("%d %d %.4f", rank, poi, score))
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("tarquery printed %d result rows, want %d:\n%s", len(rows), len(want), out)
	}
	for i, r := range want {
		if w := fmt.Sprintf("%d %d %.4f", i+1, r.POI.ID, r.Score); rows[i] != w {
			t.Errorf("row %d: tarquery %q, the tree %q", i+1, rows[i], w)
		}
	}
}
