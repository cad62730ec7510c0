package core

import (
	"reflect"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/oracle"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/telemetry"
)

// debugOnce runs one full debugging session on the F-Z profile with the
// given seed and returns everything observable about the run: the
// candidate pool, the per-iteration trace, and the final match list.
// Each run gets its own private telemetry registry so that global metric
// state can never leak between runs (or influence them).
func debugOnce(t *testing.T, seed int64) (pool []blocker.Pair, res ranker.RunResult) {
	t.Helper()
	d := datagen.MustGenerate(datagen.FodorsZagats())
	c, err := blocker.NewAttrEquivalence("city").Block(d.A, d.B)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Metrics: telemetry.New()}
	opt.Join.K = 200
	// Full parallelism on purpose: every single-config join is exact
	// under the total order (score desc, idA, idB), so neither the
	// cross-config worker pool nor the list-reuse handoff can move a bit
	// of output. Same-seed runs must be byte-identical at ANY worker
	// count; see DESIGN.md "Determinism".
	opt.Join.Workers = 4
	opt.Verifier.N = 10
	opt.Verifier.Seed = seed
	dbg, err := New(d.A, d.B, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	u := oracle.New(d.Gold, 0, seed)
	res = dbg.Run(u.Label)
	pool = dbg.Candidates().SortedPairs()
	return pool, res
}

// TestRunDeterministic checks the end-to-end reproducibility contract:
// all randomness in the pipeline (verifier tie-breaking, active-learning
// sampling, the random forest's bootstrap and feature subsets, the
// synthetic user) is injected via seeds, so two sessions with the same
// seed must produce byte-identical iteration traces — same candidate
// pool, same matches in the same order, same per-iteration match counts.
func TestRunDeterministic(t *testing.T) {
	pool1, res1 := debugOnce(t, 42)
	pool2, res2 := debugOnce(t, 42)

	if !reflect.DeepEqual(pool1, pool2) {
		t.Errorf("candidate pools differ: %d vs %d pairs", len(pool1), len(pool2))
	}
	if !reflect.DeepEqual(res1.Matches, res2.Matches) {
		t.Errorf("matches differ:\n run1: %v\n run2: %v", res1.Matches, res2.Matches)
	}
	if res1.Iterations != res2.Iterations {
		t.Errorf("iterations differ: %d vs %d", res1.Iterations, res2.Iterations)
	}
	if res1.LabelsGiven != res2.LabelsGiven {
		t.Errorf("labels differ: %d vs %d", res1.LabelsGiven, res2.LabelsGiven)
	}
	if !reflect.DeepEqual(res1.MatchesByIteration, res2.MatchesByIteration) {
		t.Errorf("iteration traces differ:\n run1: %v\n run2: %v",
			res1.MatchesByIteration, res2.MatchesByIteration)
	}
	if res1.Iterations == 0 || len(res1.Matches) == 0 {
		t.Fatalf("degenerate run (iterations=%d matches=%d): determinism check is vacuous",
			res1.Iterations, len(res1.Matches))
	}
}

// TestRunSeedSensitivity is the complement: a different seed must be
// allowed to change the trace (it exercises different verifier orderings),
// while the *set* of true matches found stays correct. This guards
// against a hidden global seed that would make every run identical
// regardless of Options.Seed.
func TestRunSeedSensitivity(t *testing.T) {
	_, res1 := debugOnce(t, 1)
	_, res2 := debugOnce(t, 99)
	// Both runs report only true matches; order may differ.
	set1 := map[blocker.Pair]bool{}
	for _, p := range res1.Matches {
		set1[p] = true
	}
	for _, p := range res2.Matches {
		if !set1[p] {
			return // traces diverged, as expected with a different seed
		}
	}
	if len(res1.Matches) != len(res2.Matches) || res1.Iterations != res2.Iterations {
		return
	}
	// Identical outcomes across seeds are suspicious but not strictly
	// wrong (the F-Z pool is small); only log it so the audit trail shows
	// the seeds were exercised.
	t.Logf("seeds 1 and 99 produced identical summaries (matches=%d iterations=%d)",
		len(res1.Matches), res1.Iterations)
}
