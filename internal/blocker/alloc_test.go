package blocker_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/datagen"
)

// TestRuleBlockAllocatesPerPair bounds what a rule blocker allocates per
// candidate pair on the M2 ×0.1 HASH1 workload (44,163 pairs): the
// candidate set's keys, sized up front by the equality driver, and row
// index, plus the normalized columns and the driver's sorted row index.
// A map-backed set alone took about 52 B per pair.
func TestRuleBlockAllocatesPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := datagen.MustGenerate(datagen.Music2().Scaled(0.1))
	q := blocker.MustParseKeepRule("m2-hash1", "attr_equal_artist_name")
	if _, err := q.Block(d.A, d.B); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := q.Block(d.A, d.B)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// About 12.8 B per pair today. The equality driver's old map of
	// growing buckets alone took about 6 B per pair (18.6 in all); its
	// sorted row index takes 4 B per A row, so 16 fails the map.
	const budget = 16 // bytes per candidate pair
	if perPair := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.Len()); perPair > budget {
		t.Errorf("Rule.Block allocated %.1f B per candidate pair over %d pairs, want at most %d",
			perPair, c.Len(), budget)
	}
}
