package core_test

import (
	"testing"

	"tartree/internal/core"
	"tartree/internal/lbsn"
)

// TestInternalAggregatesAreChildMaximaGW checks the derived internal
// aggregates of the start-up build (GW ×1, streamed as tarserve builds
// it): every internal entry, 596 of them on TAR3D and 421 on IND-spa,
// holds the per-epoch maxima of its child node's entries.
func TestInternalAggregatesAreChildMaximaGW(t *testing.T) {
	for _, c := range []struct {
		g    core.Grouping
		want int
	}{{core.TAR3D, 596}, {core.IndSpa, 421}} {
		tr, err := lbsn.GW.Build(lbsn.BuildOptions{Grouping: c.g})
		if err != nil {
			t.Fatal(err)
		}
		if n := core.CheckChildMaxima(t, tr); n != c.want {
			t.Fatalf("%v: %d internal entries checked, want %d", c.g, n, c.want)
		}
	}
}
