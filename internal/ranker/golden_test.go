package ranker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/feature"
	"matchcatcher/internal/ssjoin"
)

// trajectoryGolden is the digest of fzTrajectory. Any change to the
// forest's splits, its RNG stream, the verifier's batch orders or its
// label bookkeeping moves it. Recompute it only for an intended change
// of session semantics, never to absorb a refactor's drift.
const trajectoryGolden = "bb4a8e63fd5c0dfc8c748fef0676cd7982496250b5f001a6c0a1937eed6bd8fe"

// fzSession builds the verifier's inputs for the F-Z profile under the
// city-equivalence blocker: the per-config top-k lists (k=200, one join
// worker) and the pair feature extractor.
func fzSession(t testing.TB) ([]ssjoin.TopKList, FeatureFunc, *blocker.PairSet) {
	t.Helper()
	d := datagen.MustGenerate(datagen.FodorsZagats())
	c, err := blocker.NewAttrEquivalence("city").Block(d.A, d.B)
	if err != nil {
		t.Fatal(err)
	}
	res, err := config.Generate(d.A, d.B, config.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cor := ssjoin.NewCorpus(d.A, d.B, res)
	join := ssjoin.JoinAll(cor, c, ssjoin.Options{K: 200, Workers: 1})
	return join.Lists, feature.NewExtractor(cor).Vector, d.Gold
}

// fzTrajectory runs gold-labelled verifier sessions over the F-Z lists
// (two learning-mode seeds, one WMR session, and a 25-round
// learning session on noisy labels that keeps refitting on a growing
// training set) and hashes everything
// a user sees: every batch, every label, the forest-ranked view of the
// pool after each round, and the final matches.
func fzTrajectory(t testing.TB) string {
	lists, feats, gold := fzSession(t)
	h := sha256.New()
	for _, s := range []struct {
		seed int64
		mode Mode
		long bool // run 25 rounds on noisy labels instead of stopping early
	}{{1, ModeLearning, false}, {2, ModeLearning, false}, {3, ModeWMR, false}, {4, ModeLearning, true}} {
		opt := Options{N: 10, Seed: s.seed, Mode: s.mode}
		if s.long {
			opt.StopAfterEmpty, opt.MaxIterations = 1000, 25
		}
		v := NewVerifier(lists, feats, opt)
		fmt.Fprintf(h, "session seed=%d mode=%d E=%d\n", s.seed, s.mode, v.NumCandidates())
		for !v.Done() {
			batch := v.Next()
			if len(batch) == 0 {
				break
			}
			labels := make([]bool, len(batch))
			for i, p := range batch {
				labels[i] = gold.Contains(p.A, p.B)
				if s.long && (p.A*31+p.B)%13 == 0 {
					labels[i] = !labels[i] // deterministic label noise
				}
				fmt.Fprintf(h, "show %d,%d %t\n", p.A, p.B, labels[i])
			}
			if err := v.Feedback(labels); err != nil {
				t.Fatal(err)
			}
			hashPairs(h, "rank", v.Ranking())
		}
		hashPairs(h, "matches", v.Matches())
		fmt.Fprintf(h, "iterations %d\n", v.Iterations())
		t.Logf("seed %d mode %d: |E|=%d, %d iterations, %d matches",
			s.seed, s.mode, v.NumCandidates(), v.Iterations(), len(v.Matches()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashPairs(h hash.Hash, tag string, ps []blocker.Pair) {
	fmt.Fprintf(h, "%s %d:", tag, len(ps))
	for _, p := range ps {
		fmt.Fprintf(h, " %d,%d", p.A, p.B)
	}
	fmt.Fprintln(h)
}

// TestVerifierTrajectoryGolden pins the verifier's whole session
// trajectory on F-Z to a constant, so any drift in forest or ranking
// semantics fails here, not only in an end-to-end benchmark digest.
func TestVerifierTrajectoryGolden(t *testing.T) {
	if got := fzTrajectory(t); got != trajectoryGolden {
		t.Fatalf("trajectory digest = %s, want %s", got, trajectoryGolden)
	}
}
