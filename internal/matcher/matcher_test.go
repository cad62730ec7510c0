package matcher

import (
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/feature"
	"matchcatcher/internal/rforest"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/table"
)

func smallDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	p := datagen.FodorsZagats()
	return datagen.MustGenerate(p)
}

func allPairs(a, b *table.Table) *blocker.PairSet {
	c := blocker.NewPairSet()
	for i := 0; i < a.NumRows(); i++ {
		for j := 0; j < b.NumRows(); j++ {
			c.Add(i, j)
		}
	}
	return c
}

func TestRuleMatcher(t *testing.T) {
	d := smallDataset(t)
	m, err := NewRuleMatcher("rm", "name_jac_word >= 0.5 AND addr_jac_3gram >= 0.3")
	if err != nil {
		t.Fatal(err)
	}
	c, err := blocker.NewAttrEquivalence("city").Block(d.A, d.B)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Match(d.A, d.B, c)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(pred, d.Gold)
	if q.Precision < 0.8 {
		t.Errorf("rule matcher precision = %.2f", q.Precision)
	}
	// Predictions are a subset of the candidate set.
	pred.ForEach(func(a, b int) {
		if !c.Contains(a, b) {
			t.Errorf("matcher invented pair (%d,%d) outside C", a, b)
		}
	})
	if _, err := NewRuleMatcher("bad", "((("); err == nil {
		t.Error("want parse error")
	}
	if m.Name() != "rm" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestForestMatcher(t *testing.T) {
	d := smallDataset(t)
	res, err := config.Generate(d.A, d.B, config.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ext := feature.NewExtractor(ssjoin.NewCorpus(d.A, d.B, res))
	feats := func(a, b int) []float64 { return ext.Vector(int32(a), int32(b)) }

	c := allPairs(d.A, d.B)
	sample := SampleTrainingPairs(c, d.Gold, 60, 120, 7)
	if len(sample) < 150 {
		t.Fatalf("sample = %d", len(sample))
	}
	fm, err := TrainForestMatcher("fm", feats, sample, rforest.Options{Trees: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := fm.Match(d.A, d.B, c)
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(pred, d.Gold)
	if q.F1 < 0.5 {
		t.Errorf("forest matcher F1 = %.2f (p=%.2f r=%.2f)", q.F1, q.Precision, q.Recall)
	}
}

// TestBlockingBoundsMatcherRecall is the paper's core motivation as an
// executable assertion: with a low-recall blocker, even a perfect matcher
// cannot exceed the blocker's recall.
func TestBlockingBoundsMatcherRecall(t *testing.T) {
	d := smallDataset(t)
	c, err := blocker.NewAttrEquivalence("city").Block(d.A, d.B)
	if err != nil {
		t.Fatal(err)
	}
	// A perfect matcher: predicts exactly gold ∩ C.
	perfect := blocker.NewPairSet()
	c.ForEach(func(a, b int) {
		if d.Gold.Contains(a, b) {
			perfect.Add(a, b)
		}
	})
	q := Evaluate(perfect, d.Gold)
	blockerRecall := d.Recall(c)
	if q.Recall > blockerRecall+1e-9 {
		t.Errorf("matcher recall %.3f exceeds blocker recall %.3f", q.Recall, blockerRecall)
	}
	if blockerRecall > 0.99 {
		t.Skip("blocker recall unexpectedly perfect; bound not exercised")
	}
	if q.Recall > 0.99 {
		t.Error("recall ceiling not binding")
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	empty := blocker.NewPairSet()
	q := Evaluate(empty, empty)
	if q.Precision != 0 || q.Recall != 0 || q.F1 != 0 {
		t.Errorf("empty eval = %+v", q)
	}
	gold := blocker.NewPairSet()
	gold.Add(1, 1)
	pred := blocker.NewPairSet()
	pred.Add(1, 1)
	pred.Add(2, 2)
	q = Evaluate(pred, gold)
	if q.TruePos != 1 || q.Precision != 0.5 || q.Recall != 1 {
		t.Errorf("eval = %+v", q)
	}
}

func TestTrainForestMatcherValidation(t *testing.T) {
	if _, err := TrainForestMatcher("x", nil, nil, rforest.Options{}); err == nil {
		t.Error("want error for nil features")
	}
	feats := func(a, b int) []float64 { return []float64{0} }
	if _, err := TrainForestMatcher("x", feats, nil, rforest.Options{}); err == nil {
		t.Error("want error for empty sample")
	}
	fm := &ForestMatcher{ID: "untrained", Feats: feats}
	if _, err := fm.Match(nil, nil, blocker.NewPairSet()); err == nil {
		t.Error("want error for untrained matcher")
	}
}

func TestSampleTrainingPairsDeterministic(t *testing.T) {
	c := blocker.NewPairSet()
	gold := blocker.NewPairSet()
	for i := 0; i < 50; i++ {
		c.Add(i, i)
		c.Add(i, i+1)
		if i%2 == 0 {
			gold.Add(i, i)
		}
	}
	s1 := SampleTrainingPairs(c, gold, 10, 10, 5)
	s2 := SampleTrainingPairs(c, gold, 10, 10, 5)
	if len(s1) != 20 || len(s2) != 20 {
		t.Fatalf("sample sizes %d, %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
}

// TestSampleTrainingPairsPinned pins the sample drawn from a set filled
// in descending row order: ForEach's ascending (A, B) order is what the
// seeded shuffles start from, as the sorted pair lists were before.
func TestSampleTrainingPairsPinned(t *testing.T) {
	c := blocker.NewPairSet()
	gold := blocker.NewPairSet()
	for i := 29; i >= 0; i-- {
		c.Add(i, 3*i%7)
		c.Add(i, 40-i)
		if i%3 == 0 {
			gold.Add(i, 40-i)
		}
	}
	want := []blocker.LabeledPair{
		{A: 3, B: 37, Match: true}, {A: 15, B: 25, Match: true}, {A: 6, B: 34, Match: true},
		{A: 24, B: 16, Match: true}, {A: 28, B: 0}, {A: 22, B: 3}, {A: 28, B: 12},
		{A: 2, B: 38}, {A: 11, B: 29}, {A: 23, B: 6},
	}
	got := SampleTrainingPairs(c, gold, 4, 6, 11)
	if len(got) != len(want) {
		t.Fatalf("sample size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
