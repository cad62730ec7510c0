package ssjoin

import (
	"fmt"
	"math"
	"testing"
)

// decodeMergeInput turns raw fuzz bytes into a merge-test instance: a k, a
// part count, and a pair multiset. Scores are small rationals (i/8), so
// exact float64 ties — the case that historically flipped with scheduling —
// occur constantly rather than almost never. Duplicate (A, B) keys are kept
// on purpose: offer's retention is a pure function of the offered multiset,
// and the partition routes duplicates of a pair to the same part, so the
// merge must absorb them identically to the serial path.
func decodeMergeInput(data []byte) (k, parts int, pairs []ScoredPair) {
	if len(data) < 2 {
		return 1, 1, nil
	}
	k = int(data[0]%32) + 1
	parts = int(data[1]%8) + 1
	data = data[2:]
	for i := 0; i+2 < len(data); i += 3 {
		pairs = append(pairs, ScoredPair{
			A:     int32(data[i] % 16),
			B:     int32(data[i+1] % 16),
			Score: float64(data[i+2]%9) / 8,
		})
	}
	return k, parts, pairs
}

// FuzzMergeTopK is the differential fuzz target for merging top-k lists
// into a bounded heap: for any pair multiset, partitioning by A-record,
// keeping each part's own top-k, and offering those lists one after
// another into one heap must reproduce — bit for bit — the heap produced
// by serially offering every pair. The top-k retention is a pure function
// of the offered pairs, whatever their order or grouping; that is what
// keeps the list-reuse handoff (a child seeded with its finished
// parent's list, or run cold) and the Workers count out of the output,
// minimized to the data structure so the fuzzer can hammer the tie and
// boundary cases (exact float ties, duplicate pairs) directly (DESIGN.md
// "Determinism").
func FuzzMergeTopK(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{4, 2, 1, 2, 8, 3, 4, 8, 5, 6, 8})          // exact ties at the boundary
	f.Add([]byte{0, 7, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4}) // k=1, 8 parts
	f.Add([]byte{31, 3, 9, 9, 0, 1, 1, 0})                  // zero scores (rejected by offer)
	f.Add([]byte{15, 4, 1, 2, 8, 1, 2, 8, 1, 2, 8})         // duplicate pairs
	f.Fuzz(func(t *testing.T, data []byte) {
		k, parts, pairs := decodeMergeInput(data)

		serial := newTopkHeap(k)
		for _, p := range pairs {
			serial.offer(p)
		}

		merged := newTopkHeap(k)
		for s := 0; s < parts; s++ {
			h := newTopkHeap(k)
			for _, p := range pairs {
				if int(p.A)%parts == s {
					h.offer(p)
				}
			}
			for _, p := range h.items {
				merged.offer(p)
			}
		}

		got, want := merged.list(0), serial.list(0)
		if len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("k=%d parts=%d: merged %d pairs, serial %d",
				k, parts, len(got.Pairs), len(want.Pairs))
		}
		for i := range got.Pairs {
			g, w := got.Pairs[i], want.Pairs[i]
			if g.A != w.A || g.B != w.B || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("k=%d parts=%d: pair[%d] = %s, want %s",
					k, parts, i, fmtPair(g), fmtPair(w))
			}
		}
	})
}

func fmtPair(p ScoredPair) string {
	return fmt.Sprintf("(%d,%d,%x)", p.A, p.B, math.Float64bits(p.Score))
}
