package ssjoin

import (
	"math"
	"math/rand"
	"testing"

	"matchcatcher/internal/simfunc"
)

// TestMergeChannelAbsorbsParentList drives runJoin directly with a primed
// merge channel, the path a child takes when its parent config finishes
// mid-run (Section 4.2's "merge the parent's list when it arrives").
func TestMergeChannelAbsorbsParentList(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cor, res, c := randomCorpus(t, rng, 30, 30)
	mask := res.Root.Mask

	// The "parent list" here is just the true top-k itself; absorbing it
	// must not corrupt the result (rescoring + dedup are exercised).
	parent := BruteForce(cor, mask, c, 10, simfunc.Jaccard)
	ch := make(chan []ScoredPair, 1)
	ch <- parent.Pairs

	got := runJoin(cor, mask, runOpts{
		k: 10, m: simfunc.Jaccard, c: c,
		mergeCh: ch,
	})
	want := BruteForce(cor, mask, c, 10, simfunc.Jaccard)
	gs, ws := scoresOf(got), scoresOf(want)
	if len(gs) != len(ws) {
		t.Fatalf("len %d vs %d", len(gs), len(ws))
	}
	for i := range gs {
		if math.Abs(gs[i]-ws[i]) > 1e-9 {
			t.Fatalf("score[%d] = %g, want %g", i, gs[i], ws[i])
		}
	}
}

// TestSeedsIdenticalToMerge: seeding up front and merging mid-run must
// produce the same score sequence.
func TestSeedsIdenticalToMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cor, res, c := randomCorpus(t, rng, 25, 25)
	mask := res.Root.Mask
	parent := BruteForce(cor, mask, c, 8, simfunc.Jaccard)

	seeded := runJoin(cor, mask, runOpts{
		k: 8, m: simfunc.Jaccard, c: c,
		seeds: parent.Pairs,
	})
	ch := make(chan []ScoredPair, 1)
	ch <- parent.Pairs
	merged := runJoin(cor, mask, runOpts{
		k: 8, m: simfunc.Jaccard, c: c,
		mergeCh: ch,
	})
	ss, ms := scoresOf(seeded), scoresOf(merged)
	if len(ss) != len(ms) {
		t.Fatalf("len %d vs %d", len(ss), len(ms))
	}
	for i := range ss {
		if math.Abs(ss[i]-ms[i]) > 1e-9 {
			t.Fatalf("score[%d]: seeded %g merged %g", i, ss[i], ms[i])
		}
	}
}
