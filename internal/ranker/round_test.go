package ranker

import (
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/telemetry"
)

// warmVerifier returns an F-Z verifier that has finished one round in
// the forest phase, so every candidate's feature vector is cached and
// the round buffers exist. It never stops on empty rounds.
func warmVerifier(t testing.TB, lists []ssjoin.TopKList, feats FeatureFunc, gold *blocker.PairSet) *Verifier {
	v := NewVerifier(lists, feats, Options{N: 10, Seed: 5, StopAfterEmpty: 1 << 30, Metrics: telemetry.New()})
	for forestRounds := 0; forestRounds < 1; {
		if v.haveMatch && v.haveNon {
			forestRounds++
		}
		if !round(v, gold, make([]bool, v.opt.N)) {
			t.Fatal("session ended before the forest phase")
		}
	}
	return v
}

// round runs one Next+Feedback round with gold labels written into buf.
func round(v *Verifier, gold *blocker.PairSet, buf []bool) bool {
	batch := v.Next()
	if len(batch) == 0 {
		return false
	}
	labels := buf[:len(batch)]
	for i, p := range batch {
		labels[i] = gold.Contains(p.A, p.B)
	}
	return v.Feedback(labels) == nil
}

// TestWarmRoundAllocatesOnlyTheBatch pins the verifier's round cost: in
// the forest phase a Next+Feedback round (refit, predict, sort, label
// bookkeeping) allocates only the batch Next returns. Buffers that
// outgrow their capacity as the training set grows are amortized away.
func TestWarmRoundAllocatesOnlyTheBatch(t *testing.T) {
	lists, feats, gold := fzSession(t)
	v := warmVerifier(t, lists, feats, gold)
	buf := make([]bool, v.opt.N)
	if n := testing.AllocsPerRun(40, func() {
		if !round(v, gold, buf) {
			t.Fatal("session ended during the measurement")
		}
	}); n > 1 {
		t.Errorf("warm round allocates %v times, want only the batch", n)
	}
}

// BenchmarkVerifierRound times one forest-phase round of an F-Z session
// (refit on the labelled set, score the pool, pick the batch, record the
// labels). A fresh warm session replaces one that runs out of pairs.
func BenchmarkVerifierRound(b *testing.B) {
	lists, feats, gold := fzSession(b)
	buf := make([]bool, 10)
	var v *Verifier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v == nil || v.Done() {
			b.StopTimer()
			v = warmVerifier(b, lists, feats, gold)
			b.StartTimer()
		}
		round(v, gold, buf)
	}
}
