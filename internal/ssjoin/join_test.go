package ssjoin

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
)

// corpusFor builds a corpus from string-valued tables, generating configs.
func corpusFor(t *testing.T, attrs []string, rowsA, rowsB [][]string) (*Corpus, *config.Result) {
	t.Helper()
	cor, res, err := buildCorpus(attrs, rowsA, rowsB)
	if err != nil {
		t.Fatalf("config.Generate: %v", err)
	}
	return cor, res
}

// buildCorpus is corpusFor for callers that must tolerate the config
// generator rejecting the tables (fuzz inputs).
func buildCorpus(attrs []string, rowsA, rowsB [][]string) (*Corpus, *config.Result, error) {
	a := table.MustNew("A", attrs)
	for _, r := range rowsA {
		a.MustAppend(r)
	}
	b := table.MustNew("B", attrs)
	for _, r := range rowsB {
		b.MustAppend(r)
	}
	res, err := config.Generate(a, b, config.Options{})
	if err != nil {
		return nil, nil, err
	}
	return NewCorpus(a, b, res), res, nil
}

// TestFigure6Example reproduces the worked example of Section 4.1: strings
// w = {a,b,c,e}, x = {a,b,c,e,f}, y = {b,c,d,e,f}, z = {b,c,f,g,h} with
// pair scores s(x,w) = 0.8, s(x,y) = 0.67, s(z,y) = 0.43. With A = {w,y}
// and B = {x,z}, the top-2 must be (w,x) and (y,x).
func TestFigure6Example(t *testing.T) {
	cor, res := corpusFor(t, []string{"v"},
		[][]string{{"a b c e"}, {"b c d e f"}},
		[][]string{{"a b c e f"}, {"b c f g h"}},
	)
	list := JoinOne(cor, res.Root.Mask, nil, Options{K: 2})
	if len(list.Pairs) != 2 {
		t.Fatalf("got %d pairs", len(list.Pairs))
	}
	p0, p1 := list.Pairs[0], list.Pairs[1]
	if p0.A != 0 || p0.B != 0 || math.Abs(p0.Score-0.8) > 1e-12 {
		t.Errorf("top pair = %+v, want (w,x)=0.8", p0)
	}
	if p1.A != 1 || p1.B != 0 || math.Abs(p1.Score-2.0/3.0) > 1e-12 {
		t.Errorf("second pair = %+v, want (y,x)=0.67", p1)
	}
}

func TestCFilteringDropsBlockedPairs(t *testing.T) {
	cor, res := corpusFor(t, []string{"v"},
		[][]string{{"a b c e"}, {"b c d e f"}},
		[][]string{{"a b c e f"}, {"b c f g h"}},
	)
	c := blocker.NewPairSet()
	c.Add(0, 0) // suppress the best pair (w,x)
	list := JoinOne(cor, res.Root.Mask, c, Options{K: 2})
	for _, p := range list.Pairs {
		if p.A == 0 && p.B == 0 {
			t.Fatal("pair in C leaked into the top-k list")
		}
	}
	if len(list.Pairs) == 0 || list.Pairs[0].A != 1 || list.Pairs[0].B != 0 {
		t.Errorf("top pair after suppression = %+v", list.Pairs)
	}
}

func TestMultisetSemantics(t *testing.T) {
	// A token appearing in two attributes counts twice: tuple a has
	// "smith" in both name and city-ish attr; the multiset length is 4.
	cor, res := corpusFor(t, []string{"name", "addr"},
		[][]string{{"jim smith", "smith ville"}},
		[][]string{{"jim smith", "smith ville"}},
	)
	full := res.Root.Mask
	ra := cor.a.rec(0)
	if got := ra.lenUnder(full); got != 4 {
		t.Fatalf("multiset length = %d, want 4 (smith counted per attribute)", got)
	}
	o := overlapUnder(ra, cor.b.rec(0), full)
	if o != 4 {
		t.Errorf("self overlap = %d, want 4", o)
	}
	list := JoinOne(cor, full, nil, Options{K: 1})
	if len(list.Pairs) != 1 || math.Abs(list.Pairs[0].Score-1) > 1e-12 {
		t.Errorf("identical tuples should score 1: %+v", list.Pairs)
	}
}

// TestOverlapUnderSubConfig: a common token counts under a config only
// where both records hold it in one of the config's attributes.
func TestOverlapUnderSubConfig(t *testing.T) {
	cor, res := corpusFor(t, []string{"name", "addr"},
		[][]string{{"alpha beta", "gamma"}},
		[][]string{{"alpha", "beta gamma"}},
	)
	want := map[string]int{"name": 1, "addr": 1} // alpha / gamma; beta straddles
	for i, attr := range res.Promising {
		if got := overlapUnder(cor.a.rec(0), cor.b.rec(0), config.Mask(1)<<uint(i)); got != want[attr] {
			t.Errorf("overlap under {%s} = %d, want %d", attr, got, want[attr])
		}
	}
	if got := overlapUnder(cor.a.rec(0), cor.b.rec(0), res.Root.Mask); got != 3 {
		t.Errorf("overlap under the full config = %d, want 3", got)
	}
}

// randomCorpus builds random multi-attribute tables for property tests.
func randomCorpus(t *testing.T, rng *rand.Rand, nA, nB int) (*Corpus, *config.Result, *blocker.PairSet) {
	words := []string{"ka", "ri", "ton", "mel", "sor", "vin", "da", "lo", "pex", "tra", "ban", "cu", "dor", "fi"}
	phrase := func(min, max int) string {
		n := min + rng.Intn(max-min+1)
		var sb []string
		for i := 0; i < n; i++ {
			sb = append(sb, words[rng.Intn(len(words))])
		}
		return strings.Join(sb, " ")
	}
	row := func() []string {
		return []string{phrase(1, 4), phrase(2, 6), phrase(1, 3)}
	}
	var rowsA, rowsB [][]string
	for i := 0; i < nA; i++ {
		rowsA = append(rowsA, row())
	}
	for i := 0; i < nB; i++ {
		rowsB = append(rowsB, row())
	}
	cor, res := corpusFor(t, []string{"x", "y", "z"}, rowsA, rowsB)
	c := blocker.NewPairSet()
	for i := 0; i < nA*nB/10; i++ {
		c.Add(rng.Intn(nA), rng.Intn(nB))
	}
	return cor, res, c
}

func scoresOf(l TopKList) []float64 {
	out := make([]float64, len(l.Pairs))
	for i, p := range l.Pairs {
		out[i] = p.Score
	}
	return out
}

// sameTopK compares two top-k lists as score sequences (ties at the
// boundary may legitimately hold different pairs) and verifies that every
// pair strictly above the boundary appears in both.
func sameTopK(t *testing.T, label string, got, want TopKList) {
	t.Helper()
	gs, ws := scoresOf(got), scoresOf(want)
	if len(gs) != len(ws) {
		t.Errorf("%s: got %d pairs, want %d", label, len(gs), len(ws))
		return
	}
	for i := range gs {
		if math.Abs(gs[i]-ws[i]) > 1e-9 {
			t.Errorf("%s: score[%d] = %.12f, want %.12f", label, i, gs[i], ws[i])
			return
		}
	}
	if len(ws) == 0 {
		return
	}
	boundary := ws[len(ws)-1]
	wantSet := map[int64]bool{}
	for _, p := range want.Pairs {
		if p.Score > boundary+1e-9 {
			wantSet[pairKey(p.A, p.B)] = true
		}
	}
	gotSet := map[int64]bool{}
	for _, p := range got.Pairs {
		gotSet[pairKey(p.A, p.B)] = true
	}
	for k := range wantSet {
		if !gotSet[k] {
			t.Errorf("%s: missing above-boundary pair %d", label, k)
			return
		}
	}
}

// TestQJoinMatchesBruteForce is the core correctness property: for every
// measure and k, the join's output equals the exact top-k over A×B−C.
func TestQJoinMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cor, res, c := randomCorpus(t, rng, 30, 40)
		for _, mask := range res.Configs() {
			for _, m := range allMeasures {
				for _, k := range []int{5, 25} {
					want := BruteForce(cor, mask, c, k, m)
					got := JoinOne(cor, mask, c, Options{K: k, Measure: m})
					sameTopK(t, fmt.Sprintf("seed=%d mask=%b m=%v k=%d", seed, mask, m, k), got, want)
				}
			}
		}
	}
}

// allMeasures is every set measure the join supports.
var allMeasures = []simfunc.SetMeasure{simfunc.Jaccard, simfunc.Cosine, simfunc.Dice, simfunc.Overlap}

// TestJoinMatchesBruteForceGrid is the exactness differential of the
// whole executor: over randomCorpus inputs, every JoinAll list and every
// JoinOne list is bit-identical to BruteForce — all four measures, k
// from 1 to 200 (past the candidate count), list reuse on and off,
// Workers 1 and 2, and runJoin seeded with a random half of the
// config's 2k list as well as unseeded. Cosine ties at the k-th score
// are where a cap one ulp low used to drop the smaller-id pair.
func TestJoinMatchesBruteForceGrid(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	lists := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(1500 + seed))
		cor, res, c := randomCorpus(t, rng, 10+rng.Intn(41), 10+rng.Intn(41))
		for _, m := range allMeasures {
			for _, k := range []int{1, 3, 5, 25, 200} {
				want := make([]TopKList, len(res.Nodes()))
				for i, n := range res.Nodes() {
					want[i] = BruteForce(cor, n.Mask, c, k, m)
					label := fmt.Sprintf("seed=%d m=%v k=%d mask=%b", seed, m, k, n.Mask)
					requireIdentical(t, label+" JoinOne", JoinOne(cor, n.Mask, c, Options{K: k, Measure: m}), want[i])
					double := BruteForce(cor, n.Mask, c, 2*k, m).Pairs
					var half []ScoredPair
					for _, pr := range double {
						if rng.Intn(2) == 0 {
							half = append(half, pr)
						}
					}
					requireIdentical(t, label+" seeded", runJoin(cor, n.Mask, runOpts{k: k, m: m, c: c, seeds: half}), want[i])
					lists += 2
				}
				for _, reuse := range []bool{false, true} {
					for _, w := range []int{1, 2} {
						got := JoinAll(cor, c, Options{K: k, Measure: m, Workers: w, DisableListReuse: !reuse})
						requireIdenticalLists(t, fmt.Sprintf("seed=%d m=%v k=%d reuse=%v workers=%d", seed, m, k, reuse, w), got.Lists, want)
						lists += len(want)
					}
				}
			}
		}
	}
	t.Logf("%d lists matched BruteForce", lists)
}

// TestJoinAllMatchesIndividual is Theorem 4.2: the joint executor's lists
// equal the per-config exact outputs, with list reuse on and off, serial
// and parallel.
func TestJoinAllMatchesIndividual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cor, res, c := randomCorpus(t, rng, 40, 40)
	variants := []Options{
		{K: 20},
		{K: 20, Workers: 4},
		{K: 20, DisableListReuse: true},
		{K: 20, Workers: 3},
	}
	for vi, opt := range variants {
		jr := JoinAll(cor, c, opt)
		if len(jr.Lists) != len(res.Configs()) {
			t.Fatalf("variant %d: %d lists, want %d", vi, len(jr.Lists), len(res.Configs()))
		}
		for li, list := range jr.Lists {
			want := BruteForce(cor, list.Config, c, opt.K, opt.Measure)
			sameTopK(t, fmt.Sprintf("variant=%d list=%d mask=%b", vi, li, list.Config), list, want)
		}
	}
}

// TestNonPositiveOptionsSelectDefaults: a negative K or Workers selects
// the default, as zero does. Passed through, Workers -1 started no
// worker and hung JoinAll on its job queue, and K -1 panicked a worker
// in the top-k heap. The deprecated QUsed stays zero.
func TestNonPositiveOptionsSelectDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cor, _, c := randomCorpus(t, rng, 20, 20)
	want := JoinAll(cor, c, Options{})
	for _, opt := range []Options{{Workers: -1}, {K: -1}, {K: -1, Workers: -3}} {
		label := fmt.Sprintf("K=%d Workers=%d", opt.K, opt.Workers)
		got := JoinAll(cor, c, opt)
		requireIdenticalLists(t, label, got.Lists, want.Lists)
		if got.Stats.QUsed != 0 {
			t.Errorf("%s: QUsed = %d, want 0", label, got.Stats.QUsed)
		}
	}
}

func TestEmptyAndMissingValues(t *testing.T) {
	cor, res := corpusFor(t, []string{"v"},
		[][]string{{""}, {"a b"}},
		[][]string{{"a b"}, {""}},
	)
	list := JoinOne(cor, res.Root.Mask, nil, Options{K: 5})
	if len(list.Pairs) != 1 {
		t.Fatalf("pairs = %+v", list.Pairs)
	}
	if list.Pairs[0].A != 1 || list.Pairs[0].B != 0 || list.Pairs[0].Score != 1 {
		t.Errorf("pair = %+v", list.Pairs[0])
	}
}

func TestTopkHeapOrderingAndTies(t *testing.T) {
	h := newTopkHeap(3)
	h.offer(ScoredPair{A: 1, B: 1, Score: 0.5})
	h.offer(ScoredPair{A: 2, B: 2, Score: 0.9})
	h.offer(ScoredPair{A: 3, B: 3, Score: 0.7})
	if h.kthScore() != 0.5 {
		t.Errorf("kth = %g", h.kthScore())
	}
	h.offer(ScoredPair{A: 4, B: 4, Score: 0.6})
	l := h.list(0)
	if len(l.Pairs) != 3 || l.Pairs[0].Score != 0.9 || l.Pairs[2].Score != 0.6 {
		t.Errorf("list = %+v", l.Pairs)
	}
	// Zero scores are never retained.
	h2 := newTopkHeap(2)
	h2.offer(ScoredPair{A: 1, B: 1, Score: 0})
	if h2.Len() != 0 {
		t.Error("zero-score pair retained")
	}
}

func TestListReuseSeedsDoNotCorrupt(t *testing.T) {
	// Run the joint executor many times with different worker counts; the
	// per-config score sequences must be identical every time.
	rng := rand.New(rand.NewSource(17))
	cor, _, c := randomCorpus(t, rng, 30, 30)
	ref := JoinAll(cor, c, Options{K: 15, Workers: 1})
	for trial := 0; trial < 4; trial++ {
		got := JoinAll(cor, c, Options{K: 15, Workers: 1 + trial})
		for i := range ref.Lists {
			rs, gs := scoresOf(ref.Lists[i]), scoresOf(got.Lists[i])
			if len(rs) != len(gs) {
				t.Fatalf("trial %d list %d: len %d vs %d", trial, i, len(gs), len(rs))
			}
			for j := range rs {
				if math.Abs(rs[j]-gs[j]) > 1e-9 {
					t.Fatalf("trial %d list %d score %d: %g vs %g", trial, i, j, gs[j], rs[j])
				}
			}
		}
	}
}

func TestCorpusRecordLengths(t *testing.T) {
	cor, _ := corpusFor(t, []string{"v"},
		[][]string{{"a b c d"}},
		[][]string{{"e f"}},
	)
	full := config.Mask(1)
	if la, lb := cor.a.rec(0).lenUnder(full), cor.b.rec(0).lenUnder(full); la != 4 || lb != 2 {
		t.Errorf("record lengths = %d, %d, want 4, 2", la, lb)
	}
	if cor.NumA() != 1 || cor.NumB() != 1 {
		t.Error("sizes wrong")
	}
}

func TestGlobalOrderIsRareFirst(t *testing.T) {
	// "common" appears in every tuple; "rare" once. The rare token must
	// sort before the common one in every record's entry list.
	cor, _ := corpusFor(t, []string{"v"},
		[][]string{{"common rare"}, {"common x1"}, {"common x2"}},
		[][]string{{"common y1"}, {"common y2"}},
	)
	r := cor.a.rec(0)
	if len(r.entries) != 2 {
		t.Fatalf("entries = %d", len(r.entries))
	}
	if !sort.SliceIsSorted(r.entries, func(i, j int) bool { return r.entries[i].tok < r.entries[j].tok }) {
		t.Error("entries not sorted by rank")
	}
	// The last entry (highest rank = most frequent) must be "common",
	// i.e. the token shared with every other record. Verify via overlap:
	// dropping the last entry should kill overlap with A[1].
	full := config.Mask(1)
	o := overlapUnder(cor.a.rec(0), cor.a.rec(1), full)
	if o != 1 {
		t.Fatalf("overlap = %d", o)
	}
}
