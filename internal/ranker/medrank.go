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

func pairID(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

func idPair(id int64) blocker.Pair {
	return blocker.Pair{A: int(id >> 32), B: int(int32(uint32(id)))}
}

// packRank packs a list position's list and competition rank into one
// int64, the form the pool keeps per position.
func packRank(list, rank int) int64 { return int64(list)<<32 | int64(uint32(rank)) }

// packRanks writes into dst, one per pair of sorted top-k list l (the
// list-th), its list and 1-based competition rank ("1224" style: pairs
// with equal score share a rank).
func packRanks(dst []int64, l ssjoin.TopKList, list int) {
	rank := 0
	for i, p := range l.Pairs {
		// Exact tie on purpose: equal-scored neighbors in one sorted
		// list share a competition rank.
		if i == 0 || !floats.Equal(p.Score, l.Pairs[i-1].Score) {
			rank = i + 1
		}
		dst[i] = packRank(list, rank)
	}
}

// runs is the lists' positions (the lists concatenated in order)
// sorted by (pair id, position): each pair's positions are contiguous,
// in ascending pair id order, and headed by the pair's first position,
// stored complemented (^pos < 0). ranks[pos] is packRank of the
// position's list and competition rank.
type runs struct {
	pos   []int32
	ranks []int64
}

// buildPool builds E, the union of the top-k lists, from one sort of
// the list positions: its pair ids in item order (first seen in the
// lists), its index (every item once, in ascending pair id order) and
// the runs every aggregation reads.
func buildPool(lists []ssjoin.TopKList) (ids []int64, index []int32, r runs) {
	n := 0
	for _, l := range lists {
		n += len(l.Pairs)
	}
	all := make([]int64, 0, n)
	for _, l := range lists {
		for _, p := range l.Pairs {
			all = append(all, pairID(p.A, p.B))
		}
	}
	sorted := make([]int32, n)
	for i := range sorted {
		sorted[i] = int32(i)
	}
	slices.SortFunc(sorted, func(x, y int32) int {
		if c := cmp.Compare(all[x], all[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	// Mark each run's head, in sorted and in a bitmap by position.
	head := make([]uint64, (n+63)/64)
	pairs := 0
	for j, pos := range sorted {
		if j > 0 && all[pos] == all[sorted[j-1]] {
			continue
		}
		head[pos/64] |= 1 << (pos % 64)
		pairs++
	}
	for j, pos := range sorted {
		if head[pos/64]&(1<<(pos%64)) != 0 {
			sorted[j] = ^pos
		}
	}
	// Items are numbered by first position: walk the positions, take
	// each head's id and leave its item number in its place.
	ids = make([]int64, 0, pairs)
	for pos, id := range all {
		if head[pos/64]&(1<<(pos%64)) != 0 {
			all[pos] = int64(len(ids))
			ids = append(ids, id)
		}
	}
	index = make([]int32, 0, pairs)
	for _, pos := range sorted {
		if pos < 0 {
			index = append(index, int32(all[^pos]))
		}
	}
	// The ids are taken: the array now holds each position's rank.
	k := 0
	for i, l := range lists {
		packRanks(all[k:k+len(l.Pairs)], l, i)
		k += len(l.Pairs)
	}
	return ids, index, runs{pos: sorted, ranks: all}
}

// order returns the pool's items (index lists them in run order) in
// weighted-median-rank order under the lists' weights. An item missing
// from a list receives rank len(list)+1 there (the paper's Example
// 5.1). Ties in global rank break randomly via rng. Zero total weight
// gives nil.
//
// The rng draws a tie number per item in ascending pair id order,
// rng.Perm's draws exactly: the same seed gives the same permutation.
// The (median, tie) order is then one counting pass on the median,
// walking the items in tie order. A pair listed twice in one list keeps
// its last (largest) rank there.
func (r *runs) order(lists []ssjoin.TopKList, weights []float64, index []int32, rng *rand.Rand) []int32 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return nil
	}
	type rw struct {
		r int32
		w float64
	}
	// rws is one pair's rank and weight in every list, in list order,
	// reused across pairs.
	rws := make([]rw, len(lists))
	med := make([]int32, 0, len(index))
	maxMed := int32(0)
	for _, l := range lists {
		maxMed = max(maxMed, int32(len(l.Pairs)+1))
	}
	for start := 0; start < len(r.pos); {
		for i, l := range lists {
			rws[i] = rw{r: int32(len(l.Pairs) + 1), w: weights[i]}
		}
		end := start
		for ; end < len(r.pos) && (end == start || r.pos[end] >= 0); end++ {
			pos := r.pos[end]
			if pos < 0 {
				pos = ^pos
			}
			lr := r.ranks[pos]
			rws[lr>>32].r = int32(uint32(lr))
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
		m := rws[len(rws)-1].r
		for _, x := range rws {
			cum += x.w
			if cum*2 >= total {
				m = x.r
				break
			}
		}
		med = append(med, m)
	}
	// perm is rng.Perm(len(med)) in int32; inv[t] is the item whose tie
	// number is t.
	perm := make([]int32, len(med))
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = int32(i)
	}
	inv := make([]int32, len(med))
	for i, t := range perm {
		inv[t] = int32(i)
	}
	// next[m] is the next slot for median m; the order overwrites perm.
	next := make([]int32, maxMed+2)
	for _, m := range med {
		next[m+1]++
	}
	for m := 1; m < len(next); m++ {
		next[m] += next[m-1]
	}
	order := perm
	for _, j := range inv {
		m := med[j]
		order[next[m]] = index[j]
		next[m]++
	}
	return order
}

// aggregate is the lists' weighted-median-rank order as pairs.
func aggregate(lists []ssjoin.TopKList, weights []float64, rng *rand.Rand) []blocker.Pair {
	ids, index, r := buildPool(lists)
	order := r.order(lists, weights, index, rng)
	if order == nil {
		return nil
	}
	out := make([]blocker.Pair, len(order))
	for i, item := range order {
		out[i] = idPair(ids[item])
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
