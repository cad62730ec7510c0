package ranker

import (
	"math/rand"
	"slices"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/ssjoin"
)

// lists51 encodes Example 5.1 / Figure 8 of the paper: items a,b,c,d as
// pairs (0,0),(1,1),(2,2),(3,3) across three top-k lists.
func lists51() []ssjoin.TopKList {
	mk := func(pairs ...ssjoin.ScoredPair) ssjoin.TopKList {
		return ssjoin.TopKList{Pairs: pairs}
	}
	a := func(s float64) ssjoin.ScoredPair { return ssjoin.ScoredPair{A: 0, B: 0, Score: s} }
	b := func(s float64) ssjoin.ScoredPair { return ssjoin.ScoredPair{A: 1, B: 1, Score: s} }
	c := func(s float64) ssjoin.ScoredPair { return ssjoin.ScoredPair{A: 2, B: 2, Score: s} }
	d := func(s float64) ssjoin.ScoredPair { return ssjoin.ScoredPair{A: 3, B: 3, Score: s} }
	return []ssjoin.TopKList{
		mk(a(1.0), b(0.8), c(0.8), d(0.6)),
		mk(a(0.9), c(0.7), d(0.6)),
		mk(b(0.8), a(0.5), c(0.3), d(0.2)),
	}
}

func TestCompetitionRanks(t *testing.T) {
	l := lists51()[0]
	got := make([]int64, len(l.Pairs))
	packRanks(got, l, 2)
	want := []int64{packRank(2, 1), packRank(2, 2), packRank(2, 2), packRank(2, 4)}
	if !slices.Equal(got, want) {
		t.Errorf("entries = %+v, want %+v", got, want)
	}
}

// TestMedRankExample51 reproduces Figure 8: global order a(1), {b,c}(2), d(4).
func TestMedRankExample51(t *testing.T) {
	order := MedRank(lists51(), 1)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != (blocker.Pair{A: 0, B: 0}) {
		t.Errorf("first = %v, want a", order[0])
	}
	if order[3] != (blocker.Pair{A: 3, B: 3}) {
		t.Errorf("last = %v, want d", order[3])
	}
	mid := map[blocker.Pair]bool{order[1]: true, order[2]: true}
	if !mid[blocker.Pair{A: 1, B: 1}] || !mid[blocker.Pair{A: 2, B: 2}] {
		t.Errorf("middle = %v, want {b,c}", order[1:3])
	}
}

func TestMedRankEmptyAndWeightless(t *testing.T) {
	if got := MedRank(nil, 1); len(got) != 0 {
		t.Errorf("empty lists order = %v", got)
	}
	if got := aggregate(lists51(), []float64{0, 0, 0}, rand.New(rand.NewSource(1))); got != nil {
		t.Errorf("zero weights order = %v", got)
	}
}

func TestWeightedAggregationShifts(t *testing.T) {
	// Weighting list 3 heavily must put b (rank 1 in L3) first.
	order := aggregate(lists51(), []float64{0.05, 0.05, 0.9}, rand.New(rand.NewSource(1)))
	if order[0] != (blocker.Pair{A: 1, B: 1}) {
		t.Errorf("first = %v, want b under L3-heavy weights", order[0])
	}
}

// syntheticSetup builds a verifier scenario: candidates (i,j) for i,j<n;
// gold matches are the diagonal; features separate them cleanly except for
// a band of ambiguous pairs.
func syntheticSetup(n int, seed int64, mode Mode) (*Verifier, func(a, b int) bool, int) {
	rng := rand.New(rand.NewSource(seed))
	var pairs []ssjoin.ScoredPair
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			score := rng.Float64() * 0.5
			if i == j {
				score = 0.5 + rng.Float64()*0.5
			}
			pairs = append(pairs, ssjoin.ScoredPair{A: int32(i), B: int32(j), Score: score})
		}
	}
	// Two lists with slightly different orders.
	l1 := ssjoin.TopKList{Pairs: append([]ssjoin.ScoredPair(nil), pairs...)}
	l2 := ssjoin.TopKList{Pairs: append([]ssjoin.ScoredPair(nil), pairs...)}
	for i := range l2.Pairs {
		l2.Pairs[i].Score = l2.Pairs[i].Score*0.8 + 0.1
	}
	sortList := func(l *ssjoin.TopKList) {
		for i := 0; i < len(l.Pairs); i++ {
			for j := i + 1; j < len(l.Pairs); j++ {
				if l.Pairs[j].Score > l.Pairs[i].Score {
					l.Pairs[i], l.Pairs[j] = l.Pairs[j], l.Pairs[i]
				}
			}
		}
	}
	sortList(&l1)
	sortList(&l2)
	feats := func(a, b int32) []float64 {
		same := 0.0
		if a == b {
			same = 1
		}
		return []float64{same*0.6 + rng.Float64()*0.4, rng.Float64()}
	}
	v := NewVerifier([]ssjoin.TopKList{l1, l2}, feats, Options{N: 8, Seed: seed, Mode: mode})
	label := func(a, b int) bool { return a == b }
	return v, label, n
}

func TestVerifierFindsMatches(t *testing.T) {
	v, label, n := syntheticSetup(12, 3, ModeLearning)
	if v.NumCandidates() != n*n {
		t.Fatalf("candidates = %d", v.NumCandidates())
	}
	res := Run(v, label)
	if len(res.Matches) < n*3/4 {
		t.Errorf("found %d/%d matches", len(res.Matches), n)
	}
	if res.Iterations == 0 || res.LabelsGiven == 0 {
		t.Error("no iterations recorded")
	}
	// All reported matches must be true.
	for _, p := range res.Matches {
		if p.A != p.B {
			t.Errorf("false match reported: %v", p)
		}
	}
	// MatchesByIteration sums to total matches.
	sum := 0
	for _, m := range res.MatchesByIteration {
		sum += m
	}
	if sum != len(res.Matches) {
		t.Errorf("per-iteration sum %d != %d", sum, len(res.Matches))
	}
}

func TestVerifierWMRMode(t *testing.T) {
	v, label, n := syntheticSetup(10, 5, ModeWMR)
	res := Run(v, label)
	if len(res.Matches) == 0 {
		t.Error("WMR found nothing")
	}
	for _, p := range res.Matches {
		if p.A != p.B {
			t.Errorf("false match: %v", p)
		}
	}
	_ = n
}

func TestVerifierStopsAfterEmptyIterations(t *testing.T) {
	// No true matches at all: the verifier must stop after
	// StopAfterEmpty iterations.
	var pairs []ssjoin.ScoredPair
	for i := 0; i < 30; i++ {
		pairs = append(pairs, ssjoin.ScoredPair{A: int32(i), B: int32(i + 100), Score: 1 - float64(i)/100})
	}
	v := NewVerifier(
		[]ssjoin.TopKList{{Pairs: pairs}},
		func(a, b int32) []float64 { return []float64{float64(a) / 30} },
		Options{N: 5, StopAfterEmpty: 2, Seed: 1},
	)
	res := Run(v, func(a, b int) bool { return false })
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2 (stop after 2 empty)", res.Iterations)
	}
	if len(res.Matches) != 0 {
		t.Errorf("matches = %v", res.Matches)
	}
}

func TestVerifierMaxIterations(t *testing.T) {
	v, label, _ := syntheticSetup(12, 7, ModeLearning)
	v.opt.MaxIterations = 3
	res := Run(v, label)
	if res.Iterations > 3 {
		t.Errorf("iterations = %d, cap 3", res.Iterations)
	}
}

func TestVerifierEmptyLists(t *testing.T) {
	v := NewVerifier(nil, func(a, b int32) []float64 { return []float64{0} }, Options{})
	if !v.Done() {
		t.Error("empty verifier should be done")
	}
	if got := v.Next(); got != nil {
		t.Errorf("Next on empty = %v", got)
	}
}

func TestFeedbackValidation(t *testing.T) {
	v, _, _ := syntheticSetup(5, 9, ModeLearning)
	pairs := v.Next()
	if err := v.Feedback(make([]bool, len(pairs)+1)); err == nil {
		t.Error("want error for misaligned labels")
	}
	if err := v.Feedback(make([]bool, len(pairs))); err != nil {
		t.Errorf("aligned labels: %v", err)
	}
}

func TestVerifierDeterministic(t *testing.T) {
	run := func() RunResult {
		v, label, _ := syntheticSetup(10, 11, ModeLearning)
		return Run(v, label)
	}
	r1, r2 := run(), run()
	if r1.Iterations != r2.Iterations || len(r1.Matches) != len(r2.Matches) {
		t.Errorf("nondeterministic: %d/%d vs %d/%d matches/iters",
			len(r1.Matches), r1.Iterations, len(r2.Matches), r2.Iterations)
	}
}

// TestLearningBeatsWMR mirrors the §6.5 finding: with informative features
// and ambiguous list scores, the learning verifier should find at least as
// many matches within a bounded number of iterations as WMR.
func TestLearningBeatsWMR(t *testing.T) {
	found := func(mode Mode) int {
		v, label, _ := syntheticSetup(20, 13, mode)
		v.opt.MaxIterations = 10
		return len(Run(v, label).Matches)
	}
	l, w := found(ModeLearning), found(ModeWMR)
	if l < w {
		t.Errorf("learning found %d, WMR found %d", l, w)
	}
}

// Property: MedRank output is a permutation of the union of list items,
// and an item ranked first in every list comes out first overall.
func TestMedRankProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 50; trial++ {
		nLists := 1 + rng.Intn(4)
		nItems := 1 + rng.Intn(15)
		universe := map[int64]bool{}
		var lists []ssjoin.TopKList
		for l := 0; l < nLists; l++ {
			var pairs []ssjoin.ScoredPair
			// Item 0 always scores highest in every list.
			pairs = append(pairs, ssjoin.ScoredPair{A: 0, B: 0, Score: 1})
			universe[pairID(0, 0)] = true
			for i := 1; i < nItems; i++ {
				if rng.Intn(3) == 0 {
					continue // item missing from this list
				}
				p := ssjoin.ScoredPair{A: int32(i), B: int32(i), Score: rng.Float64() * 0.9}
				pairs = append(pairs, p)
				universe[pairID(p.A, p.B)] = true
			}
			// Sort desc by score.
			for i := 0; i < len(pairs); i++ {
				for j := i + 1; j < len(pairs); j++ {
					if pairs[j].Score > pairs[i].Score {
						pairs[i], pairs[j] = pairs[j], pairs[i]
					}
				}
			}
			lists = append(lists, ssjoin.TopKList{Pairs: pairs})
		}
		order := MedRank(lists, int64(trial))
		if len(order) != len(universe) {
			t.Fatalf("trial %d: order has %d items, universe %d", trial, len(order), len(universe))
		}
		seen := map[blocker.Pair]bool{}
		for _, p := range order {
			if seen[p] {
				t.Fatalf("trial %d: duplicate %v", trial, p)
			}
			seen[p] = true
			if !universe[pairID(int32(p.A), int32(p.B))] {
				t.Fatalf("trial %d: invented item %v", trial, p)
			}
		}
		if order[0] != (blocker.Pair{A: 0, B: 0}) {
			t.Fatalf("trial %d: universally-top item not first: %v", trial, order[0])
		}
	}
}
