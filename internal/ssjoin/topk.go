package ssjoin

import (
	"cmp"
	"slices"

	"matchcatcher/internal/config"
	"matchcatcher/internal/floats"
)

// ScoredPair is a candidate tuple pair with its similarity score under one
// config.
type ScoredPair struct {
	A, B  int32
	Score float64
}

// TopKList is the result of one config's top-k join, sorted by decreasing
// score (ties by pair for determinism).
type TopKList struct {
	Config config.Mask
	Pairs  []ScoredPair
}

// topkHeap is a bounded min-heap holding the current top-k pairs; the root
// is the k-th (worst retained) score.
type topkHeap struct {
	k     int
	items []ScoredPair
}

func newTopkHeap(k int) *topkHeap { return &topkHeap{k: k} }

func (h *topkHeap) Len() int { return len(h.items) }
func (h *topkHeap) Less(i, j int) bool {
	// floats.Equal: the exact-tie arm of PR 1's total order over
	// (score, idA, idB); see DESIGN.md "Static Analysis & Invariants".
	if !floats.Equal(h.items[i].Score, h.items[j].Score) {
		return h.items[i].Score < h.items[j].Score
	}
	// Deterministic tie order: larger pair ids are "worse", so equal-score
	// boundaries resolve the same way regardless of arrival order.
	if h.items[i].A != h.items[j].A {
		return h.items[i].A > h.items[j].A
	}
	return h.items[i].B > h.items[j].B
}
func (h *topkHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// push/up/down replicate container/heap's sift algorithm over the
// concrete element type. container/heap moves elements through
// interface{} methods, boxing every ScoredPair onto the heap at Push;
// these run in the probe inner loop, so the boxing was pure GC pressure.
// Less is a strict total order (score, then ids — no ties), so the sift
// path is uniquely determined and the results are bit-identical to the
// stdlib's.

//mc:hotpath
func (h *topkHeap) push(p ScoredPair) {
	h.items = append(h.items, p)
	h.up(len(h.items) - 1)
}

//mc:hotpath
func (h *topkHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

//mc:hotpath
func (h *topkHeap) down(i0 int) {
	n := len(h.items)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.Less(j2, j1) {
			j = j2 // right child
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
}

// kthScore returns the score a new pair must strictly beat to be retained,
// or 0 while the heap is not yet full.
func (h *topkHeap) kthScore() float64 {
	if len(h.items) < h.k {
		return 0
	}
	return h.items[0].Score
}

func (h *topkHeap) full() bool { return len(h.items) >= h.k }

// offer inserts the pair if it belongs in the top-k. Retention is a pure
// function of the offered set, not of arrival order: when a new pair ties
// the k-th score exactly, the pair with the smaller ids wins, matching
// the total order list() sorts by. This keeps identically-seeded runs
// byte-identical even though scoring order varies (flush, list reuse).
//
//mc:hotpath
func (h *topkHeap) offer(p ScoredPair) {
	if p.Score <= 0 {
		return
	}
	if len(h.items) < h.k {
		h.push(p)
		return
	}
	r := h.items[0]
	if p.Score < r.Score {
		return
	}
	if floats.Equal(p.Score, r.Score) && (p.A > r.A || (p.A == r.A && p.B >= r.B)) {
		return
	}
	// Replace the root and re-sift: heap.Fix(h, 0) minus the interface.
	h.items[0] = p
	h.down(0)
}

// list copies the heap out as a sorted TopKList; the heap's storage
// stays with h.
func (h *topkHeap) list(m config.Mask) TopKList {
	out := make([]ScoredPair, len(h.items))
	copy(out, h.items)
	slices.SortFunc(out, func(x, y ScoredPair) int {
		if !floats.Equal(x.Score, y.Score) {
			return cmp.Compare(y.Score, x.Score)
		}
		if x.A != y.A {
			return cmp.Compare(x.A, y.A)
		}
		return cmp.Compare(x.B, y.B)
	})
	return TopKList{Config: m, Pairs: out}
}
