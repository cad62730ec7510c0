package ranker

import (
	"slices"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/rforest"
	"matchcatcher/internal/telemetry"
)

// freshRanking ranks v's unlabelled pool from scratch: a new forest fit
// on the labelled set in item order with the round's seed, every
// unlabelled item scored and sorted byConfidence.
func freshRanking(t *testing.T, v *Verifier) []blocker.Pair {
	t.Helper()
	var exs []rforest.Example
	for i, st := range v.state {
		if st == labeledNo || st == labeledYes {
			exs = append(exs, rforest.Example{X: v.vec(i), Y: st == labeledYes})
		}
	}
	fopt := v.opt.Forest
	fopt.Seed = v.opt.Seed + int64(v.iter)
	f, err := rforest.Train(exs, fopt)
	if err != nil {
		t.Fatal(err)
	}
	var ranked []scored
	for i, st := range v.state {
		if st == unlabeled {
			ranked = append(ranked, scored{i, f.Confidence(v.vec(i))})
		}
	}
	slices.SortFunc(ranked, byConfidence)
	out := make([]blocker.Pair, len(ranked))
	for i, s := range ranked {
		out[i] = idPair(v.ids[s.idx])
	}
	return out
}

// checkPages pages through the ranking at several page sizes and checks
// that the pages concatenate to Ranking and report its length.
func checkPages(t *testing.T, v *Verifier, want []blocker.Pair) {
	t.Helper()
	for _, size := range []int{1, 13, 50, len(want) + 5} {
		var got []blocker.Pair
		for off := 0; ; off += size {
			page, total := v.RankingPage(off, size)
			if total != len(want) {
				t.Fatalf("RankingPage(%d, %d) total = %d, want %d", off, size, total, len(want))
			}
			if len(page) == 0 {
				break
			}
			got = append(got, page...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pages of %d concatenate to %d pairs that differ from Ranking's %d", size, len(got), len(want))
		}
	}
	if page, total := v.RankingPage(len(want)+3, 10); len(page) != 0 || total != len(want) {
		t.Fatalf("page past the end: %d pairs, total %d", len(page), total)
	}
}

// TestRankingPagesAndInvalidation runs gold-labelled F-Z sessions and,
// after every round, pins the ranking three ways: its pages concatenate
// to Ranking, a Ranking slice is the caller's to keep, and in the forest
// phase Ranking equals a ranking rebuilt from scratch on the current
// labels, so a Feedback leaves no stale scores behind.
func TestRankingPagesAndInvalidation(t *testing.T) {
	lists, feats, gold := fzSession(t)
	for _, mode := range []Mode{ModeLearning, ModeWMR} {
		v := NewVerifier(lists, feats, Options{N: 10, Seed: 7, Mode: mode, Metrics: telemetry.New()})
		forestRounds := 0
		for rounds := 0; ; rounds++ {
			want := v.Ranking()
			if len(want) != v.NumCandidates()-v.nLabeled {
				t.Fatalf("round %d: ranking holds %d pairs, %d unlabelled", rounds, len(want), v.NumCandidates()-v.nLabeled)
			}
			checkPages(t, v, want)
			mine := v.Ranking()
			clear(mine)
			if again := v.Ranking(); !slices.Equal(again, want) {
				t.Fatalf("round %d: clearing a returned ranking changed the next one", rounds)
			}
			if mode == ModeLearning && v.haveMatch && v.haveNon {
				forestRounds++
				if fresh := freshRanking(t, v); !slices.Equal(want, fresh) {
					t.Fatalf("round %d: cached ranking differs from a fresh scoring of the current labels", rounds)
				}
			}
			if v.Done() || !round(v, gold, make([]bool, v.opt.N)) {
				break
			}
		}
		if mode == ModeLearning && forestRounds < 2 {
			t.Fatalf("only %d forest-phase rounds checked", forestRounds)
		}
	}
}

// TestOnePredictPerForest: every forest-phase round, hybrid or confident,
// scores the pool under exactly one verifier.predict span after one
// verifier.fit, however often Ranking pages are read around Next, and
// reading them leaves the batches unchanged.
func TestOnePredictPerForest(t *testing.T) {
	lists, feats, gold := fzSession(t)
	batches := func(pageReads bool) ([][]blocker.Pair, int) {
		tr := telemetry.NewTracer(telemetry.New())
		root := tr.Start("test")
		v := NewVerifier(lists, feats, Options{N: 12, Seed: 3, StopAfterEmpty: 1 << 30, MaxIterations: 8, Metrics: telemetry.New()})
		v.SetTraceParent(root)
		count := func(name string) int {
			n := 0
			for _, s := range tr.Export() {
				if s.Name == name {
					n++
				}
			}
			return n
		}
		var out [][]blocker.Pair
		hybrid := 0
		for !v.Done() {
			forest := v.haveMatch && v.haveNon
			if forest && v.alRounds < v.opt.ALIterations {
				hybrid++
			}
			fits, predicts := count("verifier.fit"), count("verifier.predict")
			if pageReads {
				_ = v.Ranking()
				_, _ = v.RankingPage(3, 5)
			}
			batch := v.Next()
			if pageReads {
				_, _ = v.RankingPage(0, 4)
			}
			want := 0
			if forest {
				want = 1
			}
			if df, dp := count("verifier.fit")-fits, count("verifier.predict")-predicts; df != want || dp != want {
				t.Fatalf("round %d (forest phase %t): %d fit and %d predict spans, want %d each", v.iter+1, forest, df, dp, want)
			}
			out = append(out, batch)
			labels := make([]bool, len(batch))
			for i, p := range batch {
				labels[i] = gold.Contains(p.A, p.B)
			}
			if err := v.Feedback(labels); err != nil {
				t.Fatal(err)
			}
		}
		return out, hybrid
	}
	plain, hybrid := batches(false)
	paged, _ := batches(true)
	if hybrid == 0 || hybrid == len(plain) {
		t.Fatalf("%d hybrid rounds of %d: the session must cover both kinds", hybrid, len(plain))
	}
	if len(plain) != len(paged) {
		t.Fatalf("%d rounds without page reads, %d with", len(plain), len(paged))
	}
	for i := range plain {
		if !slices.Equal(plain[i], paged[i]) {
			t.Fatalf("round %d: reading ranking pages changed the batch", i+1)
		}
	}
}

// TestRepeatedNextReturnsTheSameBatch: a second Next before Feedback (a
// client retrying POST .../next, say) returns the first one's batch
// again, and the rest of the session is the one without the repeat, in
// every phase: the bootstrap order, hybrid and confident forest rounds,
// and WMR.
func TestRepeatedNextReturnsTheSameBatch(t *testing.T) {
	lists, feats, gold := fzSession(t)
	const (
		bootstrap = iota
		hybrid
		confident
		wmr
	)
	seen := map[int]bool{}
	for _, mode := range []Mode{ModeLearning, ModeWMR} {
		session := func(repeat bool) [][]blocker.Pair {
			v := NewVerifier(lists, feats, Options{N: 10, Seed: 3, Mode: mode, StopAfterEmpty: 1 << 30, MaxIterations: 8, Metrics: telemetry.New()})
			var out [][]blocker.Pair
			for !v.Done() {
				phase := confident
				switch {
				case mode == ModeWMR:
					phase = wmr
				case !v.haveMatch || !v.haveNon:
					phase = bootstrap
				case v.alRounds < v.opt.ALIterations:
					phase = hybrid
				}
				batch := v.Next()
				if repeat {
					seen[phase] = true
					if again := v.Next(); !slices.Equal(again, batch) {
						t.Fatalf("mode %d round %d (phase %d): second Next gave %v, first %v", mode, v.iter+1, phase, again, batch)
					}
				}
				out = append(out, batch)
				labels := make([]bool, len(batch))
				for i, p := range batch {
					labels[i] = gold.Contains(p.A, p.B)
				}
				if err := v.Feedback(labels); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		once, twice := session(false), session(true)
		if len(once) != len(twice) {
			t.Fatalf("mode %d: %d rounds with single Next calls, %d with repeats", mode, len(once), len(twice))
		}
		for i := range once {
			if !slices.Equal(once[i], twice[i]) {
				t.Fatalf("mode %d round %d: a repeated Next changed the batch", mode, i+1)
			}
		}
	}
	for _, phase := range []int{bootstrap, hybrid, confident, wmr} {
		if !seen[phase] {
			t.Errorf("phase %d never reached", phase)
		}
	}
}
