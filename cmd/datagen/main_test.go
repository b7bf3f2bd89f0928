package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs main instead of the tests when runDatagen re-executes the
// test binary as the command.
func TestMain(m *testing.M) {
	if os.Getenv("DATAGEN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDatagen runs the command with args and returns its output.
func runDatagen(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DATAGEN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("datagen %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestDatagenDeterministic: at a tiny scale datagen writes the POI and
// check-in CSVs, the check-in stream and the shard map, and a second run
// writes every file byte for byte again.
func TestDatagenDeterministic(t *testing.T) {
	files := []string{"GS_pois.csv", "GS_checkins.csv", "stream.csv", "map.json"}
	var runs [2]string
	for i := range runs {
		runs[i] = t.TempDir()
		runDatagen(t, "-dataset", "GS", "-scale", "0.02", "-out", runs[i],
			"-checkins", filepath.Join(runs[i], "stream.csv"),
			"-shards", "2", "-shard-map", filepath.Join(runs[i], "map.json"))
	}
	for _, name := range files {
		a, err := os.ReadFile(filepath.Join(runs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("%s is empty", name)
		}
		b, err := os.ReadFile(filepath.Join(runs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two runs", name)
		}
	}
}
