package ssjoin

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Property: topkHeap retains exactly the k highest-scoring pairs (compared
// against a reference sort), for random inputs.
func TestTopkHeapMatchesReferenceSort(t *testing.T) {
	f := func(scores []float64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		h := newTopkHeap(k)
		var ref []ScoredPair
		for i, s := range scores {
			if s != s { // scores are never NaN in the join
				continue
			}
			if s < 0 {
				s = -s
			}
			s = math.Mod(s, 1) // wrap into [0,1)
			p := ScoredPair{A: int32(i), B: int32(i), Score: s}
			h.offer(p)
			if s > 0 {
				ref = append(ref, p)
			}
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].Score > ref[j].Score })
		if len(ref) > k {
			ref = ref[:k]
		}
		got := h.list(0).Pairs
		if len(got) != len(ref) {
			return false
		}
		for i := range got {
			if got[i].Score != ref[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: kthScore is 0 until the heap fills, then equals the smallest
// retained score and never decreases.
func TestTopkHeapKthScoreMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := newTopkHeap(5)
	prev := 0.0
	for i := 0; i < 200; i++ {
		if h.Len() < 5 && h.kthScore() != 0 {
			t.Fatal("kthScore nonzero before full")
		}
		h.offer(ScoredPair{A: int32(i), B: int32(i), Score: rng.Float64()})
		if h.full() {
			if k := h.kthScore(); k < prev {
				t.Fatalf("kthScore decreased: %g -> %g", prev, k)
			} else {
				prev = k
			}
		}
	}
}
