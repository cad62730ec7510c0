package ranker

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/floats"
	"matchcatcher/internal/ssjoin"
)

// referenceCompetitionRanks assigns 1-based competition ranks ("1224"
// style: items with equal score share a rank) to one sorted top-k list.
func referenceCompetitionRanks(l ssjoin.TopKList) map[int64]int {
	out := make(map[int64]int, len(l.Pairs))
	rank := 0
	for i, p := range l.Pairs {
		if i == 0 || !floats.Equal(p.Score, l.Pairs[i-1].Score) {
			rank = i + 1
		}
		out[pairID(p.A, p.B)] = rank
	}
	return out
}

// referenceAggregate is the map-based aggregation the flat one must
// reproduce bit for bit: one rank map per list, a universe map visited
// in sorted id order, and a sort.Slice per pair for the weighted median.
// It consumes the rng exactly as aggregate does.
func referenceAggregate(lists []ssjoin.TopKList, weights []float64, rng *rand.Rand) []blocker.Pair {
	ranks := make([]map[int64]int, len(lists))
	universe := map[int64]struct{}{}
	for i, l := range lists {
		ranks[i] = referenceCompetitionRanks(l)
		for id := range ranks[i] {
			universe[id] = struct{}{}
		}
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return nil
	}

	type scored struct {
		id     int64
		global float64
		tie    int
	}
	ids := make([]int64, 0, len(universe))
	for id := range universe {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	items := make([]scored, 0, len(universe))
	type rw struct {
		r int
		w float64
	}
	rws := make([]rw, 0, len(lists))
	for _, id := range ids {
		rws = rws[:0]
		for i := range lists {
			r, ok := ranks[i][id]
			if !ok {
				r = len(lists[i].Pairs) + 1
			}
			rws = append(rws, rw{r: r, w: weights[i]})
		}
		sort.Slice(rws, func(x, y int) bool { return rws[x].r < rws[y].r })
		cum := 0.0
		med := rws[len(rws)-1].r
		for _, x := range rws {
			cum += x.w
			if cum*2 >= total {
				med = x.r
				break
			}
		}
		items = append(items, scored{id: id, global: float64(med)})
	}
	perm := rng.Perm(len(items))
	for i := range items {
		items[i].tie = perm[i]
	}
	sort.Slice(items, func(x, y int) bool {
		if !floats.Equal(items[x].global, items[y].global) {
			return items[x].global < items[y].global
		}
		return items[x].tie < items[y].tie
	})
	out := make([]blocker.Pair, len(items))
	for i, it := range items {
		out[i] = idPair(it.id)
	}
	return out
}

// checkAggregate runs both aggregations with one seed and requires the
// same order and the same rng state afterwards.
func checkAggregate(t *testing.T, label string, lists []ssjoin.TopKList, weights []float64, seed int64) {
	t.Helper()
	gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got := aggregate(lists, weights, gotRng)
	want := referenceAggregate(lists, weights, wantRng)
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s: order differs from the reference\ngot:  %v\nwant: %v", label, got, want)
	}
	if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
		t.Fatalf("%s: rng streams diverge after aggregation", label)
	}
}

// randomLists draws nLists sorted top-k lists over a universe of nPairs
// pairs: each list holds a random subset (so pairs go missing from some
// lists), and scores come from levels distinct values (few levels make
// exact ties, within and across lists).
func randomLists(rng *rand.Rand, nLists, nPairs, levels int) []ssjoin.TopKList {
	lists := make([]ssjoin.TopKList, nLists)
	for i := range lists {
		var pairs []ssjoin.ScoredPair
		for p := 0; p < nPairs; p++ {
			if rng.Intn(3) == 0 {
				continue
			}
			pairs = append(pairs, ssjoin.ScoredPair{
				A:     int32(p % 7),
				B:     int32(p / 7),
				Score: float64(1+rng.Intn(levels)) / float64(levels),
			})
		}
		sort.SliceStable(pairs, func(x, y int) bool { return pairs[x].Score > pairs[y].Score })
		lists[i] = ssjoin.TopKList{Pairs: pairs}
	}
	return lists
}

// TestAggregateMatchesReference holds aggregate to the map-based
// reference over random lists: up to 30 lists (past 12 the weighted
// median's sort leaves insertion sort for pdqsort), exact score ties,
// pairs missing from some lists, unit, WMR-style renormalized, raw
// random and signed integer weights, zero total weight, and empty
// lists.
func TestAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		nLists := 1 + rng.Intn(30)
		lists := randomLists(rng, nLists, rng.Intn(60), 1+rng.Intn(8))
		if trial%10 == 0 {
			lists[rng.Intn(nLists)].Pairs = nil
		}
		weights := make([]float64, nLists)
		sum := 0.0
		for i := range weights {
			switch trial % 4 {
			case 0:
				weights[i] = 1
			case 3:
				// Signed weights make the cumulative sum depend on the
				// order the median's sort leaves equal ranks in.
				weights[i] = float64(rng.Intn(7) - 2)
			default:
				weights[i] = rng.Float64() * 3
			}
			sum += weights[i]
		}
		if trial%4 == 2 {
			for i := range weights {
				weights[i] /= sum
			}
		}
		checkAggregate(t, fmt.Sprintf("trial %d", trial), lists, weights, int64(trial))
	}
	lists := randomLists(rng, 5, 20, 3)
	checkAggregate(t, "zero total weight", lists, make([]float64, 5), 1)
	checkAggregate(t, "no lists", nil, nil, 1)
	ones := make([]float64, 13)
	for i := range ones {
		ones[i] = 1
	}
	checkAggregate(t, "only empty lists", make([]ssjoin.TopKList, 13), ones, 1)
}

// FuzzAggregate decodes the fuzz bytes into lists and weights and holds
// aggregate to the reference: the first byte picks the list count (up
// to 31), each following 3-byte group adds a pair to one list (a pair
// may repeat within a list), and the weights are read from the tail as
// small fixed-point values (negative, zero and tied weights included).
// Registered in the Makefile fuzz-smoke target.
func FuzzAggregate(f *testing.F) {
	f.Add(int64(1), []byte{3, 0, 1, 9, 1, 1, 9, 2, 2, 5, 0, 2, 7})
	f.Add(int64(2), []byte{20, 0, 0, 1, 19, 0, 1, 5, 5, 5, 5, 5, 5, 0, 0, 0, 0})
	f.Add(int64(3), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) == 0 {
			return
		}
		nLists := int(data[0]%31) + 1
		data = data[1:]
		weights := make([]float64, nLists)
		for i := range weights {
			if len(data) >= 2 {
				weights[i] = float64(int16(binary.LittleEndian.Uint16(data[len(data)-2:]))) / 64
				data = data[:len(data)-2]
			} else {
				weights[i] = 1
			}
		}
		pairs := make([][]ssjoin.ScoredPair, nLists)
		for ; len(data) >= 3; data = data[3:] {
			l := int(data[0]) % nLists
			pairs[l] = append(pairs[l], ssjoin.ScoredPair{
				A: int32(data[1] & 15), B: int32(data[1] >> 4), Score: float64(data[2]%16) / 15,
			})
		}
		lists := make([]ssjoin.TopKList, nLists)
		for i, ps := range pairs {
			sort.SliceStable(ps, func(x, y int) bool { return ps[x].Score > ps[y].Score })
			lists[i] = ssjoin.TopKList{Pairs: ps}
		}
		checkAggregate(t, "fuzz", lists, weights, seed)
	})
}
