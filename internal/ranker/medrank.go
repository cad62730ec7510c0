// Package ranker implements the Match Verifier of Section 5 of the paper:
// MedRank rank aggregation over the per-config top-k lists, the weighted
// median ranking (WMR) baseline, and the hybrid active/online learning
// loop that engages the user to surface killed-off matches.
package ranker

import (
	"cmp"
	"math/rand"
	"slices"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/floats"
	"matchcatcher/internal/ssjoin"
)

// rankEntry is one pair's place in one list: its competition rank
// there.
type rankEntry struct {
	id   int64
	list int32
	rank int32
}

// appendRanks appends one entry per pair of sorted top-k list l (the
// list-th), carrying its 1-based competition rank ("1224" style: pairs
// with equal score share a rank).
func appendRanks(dst []rankEntry, l ssjoin.TopKList, list int) []rankEntry {
	rank := 0
	for i, p := range l.Pairs {
		// Exact tie on purpose: equal-scored neighbors in one sorted
		// list share a competition rank.
		if i == 0 || !floats.Equal(p.Score, l.Pairs[i-1].Score) {
			rank = i + 1
		}
		dst = append(dst, rankEntry{id: pairID(p.A, p.B), list: int32(list), rank: int32(rank)})
	}
	return dst
}

func pairID(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

func idPair(id int64) blocker.Pair {
	return blocker.Pair{A: int(id >> 32), B: int(int32(uint32(id)))}
}

// medianOrder computes the weighted-median-rank order of every pair in
// the lists. It returns the distinct pair ids in ascending order, and
// the order as positions in ids. An item missing from a list receives
// rank len(list)+1 there (the paper's Example 5.1). Ties in global rank
// break randomly via rng. Zero total weight gives nil.
//
// One flat array holds every (pair, list, rank) entry, sorted by pair
// id, so each pair's entries are contiguous and the pairs come out in
// ascending id order: that fixed order is what lets the seeded rng
// decide ties (same seed, same permutation). A pair listed twice in one
// list keeps its last (largest) rank there.
func medianOrder(lists []ssjoin.TopKList, weights []float64, rng *rand.Rand) (ids []int64, order []int32) {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return nil, nil
	}
	n := 0
	for _, l := range lists {
		n += len(l.Pairs)
	}
	entries := make([]rankEntry, 0, n)
	for i, l := range lists {
		entries = appendRanks(entries, l, i)
	}
	slices.SortFunc(entries, func(x, y rankEntry) int {
		if c := cmp.Compare(x.id, y.id); c != 0 {
			return c
		}
		if c := cmp.Compare(x.list, y.list); c != 0 {
			return c
		}
		return cmp.Compare(x.rank, y.rank)
	})

	type scored struct {
		med int32
		tie int32
		pos int32 // index in ids
	}
	type rw struct {
		r int32
		w float64
	}
	pairs := 0
	for i := range entries {
		if i == 0 || entries[i].id != entries[i-1].id {
			pairs++
		}
	}
	ids = make([]int64, 0, pairs)
	items := make([]scored, 0, pairs)
	// rws is one pair's rank and weight in every list, laid out in list
	// order and then sorted by rank for the median; reused across pairs.
	rws := make([]rw, len(lists))
	for start := 0; start < len(entries); {
		id := entries[start].id
		for i, l := range lists {
			rws[i] = rw{r: int32(len(l.Pairs) + 1), w: weights[i]}
		}
		end := start
		for ; end < len(entries) && entries[end].id == id; end++ {
			rws[entries[end].list].r = entries[end].rank
		}
		start = end
		// Equal ranks stay in the order pdqsort leaves them for this
		// input (the order sort.Slice gives too), and the cumulative
		// weight below sums them in that order: its rounding, and with
		// signed weights the median itself, depend on it.
		slices.SortFunc(rws, func(x, y rw) int { return cmp.Compare(x.r, y.r) })
		// Weighted median: the smallest rank whose cumulative weight
		// reaches half the total.
		cum := 0.0
		med := rws[len(rws)-1].r
		for _, x := range rws {
			cum += x.w
			if cum*2 >= total {
				med = x.r
				break
			}
		}
		items = append(items, scored{med: med, pos: int32(len(ids))})
		ids = append(ids, id)
	}
	// Random tie-breaking (seeded): assign tiebreak numbers in ascending
	// id order, then sort.
	perm := rng.Perm(len(items))
	for i := range items {
		items[i].tie = int32(perm[i])
	}
	slices.SortFunc(items, func(x, y scored) int {
		if c := cmp.Compare(x.med, y.med); c != 0 {
			return c
		}
		return cmp.Compare(x.tie, y.tie)
	})
	order = make([]int32, len(items))
	for i, it := range items {
		order[i] = it.pos
	}
	return ids, order
}

// aggregate is medianOrder as pairs.
func aggregate(lists []ssjoin.TopKList, weights []float64, rng *rand.Rand) []blocker.Pair {
	ids, order := medianOrder(lists, weights, rng)
	if order == nil {
		return nil
	}
	out := make([]blocker.Pair, len(order))
	for i, j := range order {
		out[i] = idPair(ids[j])
	}
	return out
}

// MedRank aggregates the top-k lists into a single global order using the
// median of per-list competition ranks (Fagin et al.'s MedRank), breaking
// ties randomly with the seeded rng.
func MedRank(lists []ssjoin.TopKList, seed int64) []blocker.Pair {
	w := make([]float64, len(lists))
	for i := range w {
		w[i] = 1
	}
	return aggregate(lists, w, rand.New(rand.NewSource(seed)))
}
