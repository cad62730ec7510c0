// Package matcher implements the matching step that consumes a blocker's
// candidate set — the stage the paper's introduction motivates blocking
// with ("the next step, called matching, matches the remaining pairs,
// using rule- or learning-based techniques"). MatchCatcher itself never
// matches; this substrate exists so the end-to-end examples and
// experiments can show how blocker recall bounds final EM recall: a match
// killed at blocking time is unrecoverable no matter how good the matcher.
package matcher

import (
	"fmt"
	"math/rand"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/rforest"
	"matchcatcher/internal/table"
)

// Matcher decides match/no-match for candidate pairs.
type Matcher interface {
	// Name identifies the matcher in reports.
	Name() string
	// Match filters the candidate set down to predicted matches.
	Match(a, b *table.Table, c *blocker.PairSet) (*blocker.PairSet, error)
}

// RuleMatcher predicts a match when the expression holds — the rule-based
// matching of the paper's introduction, sharing the blocker rule language
// (e.g. "name_jw >= 0.9 AND attr_equal_city").
type RuleMatcher struct {
	ID   string
	Expr blocker.Expr
}

// NewRuleMatcher parses src as a match condition.
func NewRuleMatcher(id, src string) (*RuleMatcher, error) {
	e, err := blocker.Parse(src)
	if err != nil {
		return nil, err
	}
	return &RuleMatcher{ID: id, Expr: e}, nil
}

// Name implements Matcher.
func (m *RuleMatcher) Name() string { return m.ID }

// Match implements Matcher.
func (m *RuleMatcher) Match(a, b *table.Table, c *blocker.PairSet) (*blocker.PairSet, error) {
	if m.Expr == nil {
		return nil, fmt.Errorf("matcher %s: nil expression", m.ID)
	}
	out := blocker.NewPairSet()
	var err error
	c.ForEach(func(ra, rb int) {
		if m.Expr.Holds(a, ra, b, rb) {
			out.Add(ra, rb)
		}
	})
	return out, err
}

// FeatureFunc computes a pair's feature vector (feature.Extractor.Vector
// adapted to plain ints).
type FeatureFunc func(a, b int) []float64

// ForestMatcher is a learning-based matcher: a random forest trained on
// labeled pairs over the same feature space the verifier uses.
type ForestMatcher struct {
	ID        string
	Feats     FeatureFunc
	Threshold float64 // positive-vote fraction to predict match (default 0.5)
	forest    *rforest.Forest
}

// TrainForestMatcher fits a forest matcher on labeled sample pairs.
func TrainForestMatcher(id string, feats FeatureFunc, sample []blocker.LabeledPair, opt rforest.Options) (*ForestMatcher, error) {
	if feats == nil {
		return nil, fmt.Errorf("matcher %s: nil feature function", id)
	}
	exs := make([]rforest.Example, 0, len(sample))
	for _, p := range sample {
		exs = append(exs, rforest.Example{X: feats(p.A, p.B), Y: p.Match})
	}
	f, err := rforest.Train(exs, opt)
	if err != nil {
		return nil, fmt.Errorf("matcher %s: %w", id, err)
	}
	return &ForestMatcher{ID: id, Feats: feats, Threshold: 0.5, forest: f}, nil
}

// Name implements Matcher.
func (m *ForestMatcher) Name() string { return m.ID }

// Match implements Matcher.
func (m *ForestMatcher) Match(a, b *table.Table, c *blocker.PairSet) (*blocker.PairSet, error) {
	if m.forest == nil {
		return nil, fmt.Errorf("matcher %s: not trained", m.ID)
	}
	out := blocker.NewPairSet()
	c.ForEach(func(ra, rb int) {
		if m.forest.Confidence(m.Feats(ra, rb)) >= m.Threshold {
			out.Add(ra, rb)
		}
	})
	return out, nil
}

// Quality reports matcher output against gold.
type Quality struct {
	Predicted int
	TruePos   int
	Precision float64
	// Recall is measured against ALL gold matches, not just those
	// surviving blocking — so it exposes the recall ceiling the blocker
	// imposes (the paper's core motivation).
	Recall float64
	F1     float64
}

// Evaluate computes precision/recall/F1 of predicted matches against gold.
func Evaluate(pred, gold *blocker.PairSet) Quality {
	q := Quality{Predicted: pred.Len()}
	pred.ForEach(func(a, b int) {
		if gold.Contains(a, b) {
			q.TruePos++
		}
	})
	if q.Predicted > 0 {
		q.Precision = float64(q.TruePos) / float64(q.Predicted)
	}
	if g := gold.Len(); g > 0 {
		q.Recall = float64(q.TruePos) / float64(g)
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}

// SampleTrainingPairs draws a balanced labeled sample from the candidate
// set (positives from gold ∩ c, negatives from c − gold), simulating the
// labeled data an EM team would have for matcher training.
func SampleTrainingPairs(c, gold *blocker.PairSet, nPos, nNeg int, seed int64) []blocker.LabeledPair {
	var pos, neg []blocker.Pair
	c.ForEach(func(a, b int) {
		p := blocker.Pair{A: a, B: b}
		if gold.Contains(a, b) {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
	})
	// ForEach yields ascending (A, B) order, so the seeded shuffles below
	// are deterministic.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	var out []blocker.LabeledPair
	for i := 0; i < nPos && i < len(pos); i++ {
		out = append(out, blocker.LabeledPair{A: pos[i].A, B: pos[i].B, Match: true})
	}
	for i := 0; i < nNeg && i < len(neg); i++ {
		out = append(out, blocker.LabeledPair{A: neg[i].A, B: neg[i].B, Match: false})
	}
	return out
}
