package ranker

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/ssjoin"
)

// newPool returns the pool's ids and its index alone, the part the
// verifier's item lookups read.
func newPool(lists []ssjoin.TopKList) (ids []int64, index []int32) {
	ids, index, _ = buildPool(lists)
	return ids, index
}

// TestNewPoolMatchesFirstSeenMap holds the sorted pool index to the map
// it replaced: ids in first-seen order over the lists, every pool pair
// found at its item index, and pairs outside the pool not found.
func TestNewPoolMatchesFirstSeenMap(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		lists := randomLists(rng, rng.Intn(6), rng.Intn(60), 1+rng.Intn(4))
		// Pairs repeated within a list, and negative B ids.
		for i := range lists {
			if n := len(lists[i].Pairs); n > 0 && rng.Intn(2) == 0 {
				p := lists[i].Pairs[rng.Intn(n)]
				p.B = -p.B - 1
				lists[i].Pairs = append(lists[i].Pairs, p, p)
			}
		}
		byID := map[int64]int{}
		var want []int64
		for _, l := range lists {
			for _, p := range l.Pairs {
				if id := pairID(p.A, p.B); !slices.Contains(want, id) {
					byID[id] = len(want)
					want = append(want, id)
				}
			}
		}
		ids, index := newPool(lists)
		if !slices.Equal(ids, want) {
			t.Fatalf("trial %d: ids %v, want first-seen order %v", trial, ids, want)
		}
		if len(ids) != cap(ids) {
			t.Fatalf("trial %d: ids has capacity %d for %d pairs", trial, cap(ids), len(ids))
		}
		v := &Verifier{ids: ids, index: index}
		for id, idx := range byID {
			if got := v.item(idPair(id)); got != idx {
				t.Fatalf("trial %d: item(%v) = %d, want %d", trial, idPair(id), got, idx)
			}
		}
		for _, p := range []blocker.Pair{{A: -1, B: 0}, {A: 7, B: 0}, {A: 0, B: 1 << 20}} {
			if got := v.item(p); got != -1 {
				t.Fatalf("trial %d: item(%v) = %d for a pair outside the pool", trial, p, got)
			}
		}
	}
}

// TestPoolIndexBytesPerPair bounds newPool's allocation on the F-Z
// session lists (about three list entries per pool pair): per list
// entry an 8 B id and a 4 B position to sort, and per pool pair its
// 8 B id and a 4 B first position. The map index it replaced took about
// 100 B per pool pair on M2 ×0.1.
func TestPoolIndexBytesPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lists, _, _ := fzSession(t)
	entries := 0
	for _, l := range lists {
		entries += len(l.Pairs)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ids, _ := newPool(lists)
	runtime.ReadMemStats(&after)
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d list entries, %d pool pairs, %d bytes", entries, len(ids), got)
	// 12 B per entry and per pair is 49 B per pool pair here; the size
	// classes of the four slices take the rest.
	const budget = 64
	if perPair := float64(got) / float64(len(ids)); perPair > budget {
		t.Errorf("newPool allocated %.1f B per pool pair, want at most %d", perPair, budget)
	}
}

// TestMedRankBytesPerEntry bounds what MedRank allocates beyond the pool
// on the F-Z session lists (about three list entries per pool pair), for
// unit and for WMR-style weights: per pool pair its median, its tie
// number and their inverse, which the order overwrites (12 B, about 4 B
// per list entry), one count per rank and one rank and weight per list.
// Sorting a (pair, list, rank) entry per list position took 28 B per
// entry.
func TestMedRankBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	lists, _, _ := fzSession(t)
	entries := 0
	for _, l := range lists {
		entries += len(l.Pairs)
	}
	_, index, r := buildPool(lists)
	unit, wmr := make([]float64, len(lists)), make([]float64, len(lists))
	for i := range unit {
		unit[i], wmr[i] = 1, float64(i+1)/float64(len(lists))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, w := range []struct {
		name    string
		weights []float64
	}{{"unit", unit}, {"wmr", wmr}} {
		rng := rand.New(rand.NewSource(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		order := r.order(lists, w.weights, index, rng)
		runtime.ReadMemStats(&after)
		got := int(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s weights: %d list entries, %d pool pairs, %d bytes", w.name, entries, len(order), got)
		const budget = 8
		if perEntry := float64(got) / float64(entries); perEntry > budget {
			t.Errorf("%s weights: MedRank allocated %.1f B per list entry beyond the pool, want at most %d", w.name, perEntry, budget)
		}
	}
}
