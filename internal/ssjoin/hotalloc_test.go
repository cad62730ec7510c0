package ssjoin

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// The //mc:hotpath contract, checked dynamically: the static half is
// hotalloc (mclint -escapes proves the compiler moves nothing to the
// heap); this half proves it at runtime with the allocation counter.
// Together they pin the de-boxed heap offer at zero allocations — the
// whole point of dropping container/heap's interface{} methods from the
// row loop.

func TestOfferZeroAllocs(t *testing.T) {
	h := newTopkHeap(64)
	// Fill the heap so offer exercises the replace-root + down path.
	for i := int32(0); i < 64; i++ {
		h.offer(ScoredPair{A: i, B: i, Score: 0.1 + float64(i)*0.01})
	}
	if !h.full() {
		t.Fatal("heap should be full")
	}
	var n int32 = 64
	allocs := testing.AllocsPerRun(1000, func() {
		// Strictly improving scores keep every offer on the hot
		// replace path.
		h.offer(ScoredPair{A: n, B: n, Score: 1 + float64(n)*0.01})
		n++
	})
	if allocs != 0 {
		t.Errorf("topkHeap.offer allocated %.1f times per run, want 0", allocs)
	}
}

// TestWarmJoinAllAllocatesOnlyLists: with the probe pool warm, a
// JoinAll allocates the lists it returns plus a small fixed budget for
// per-call bookkeeping (worker, channels, per-config stats). Instance
// ids, the heap, B's index, the row array and the marks all come from
// the pooled block, so they cost nothing on the second call — a GC in
// between included: the pool is a free list, which no GC empties.
func TestWarmJoinAllAllocatesOnlyLists(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1400))
	cor, _, c := randomCorpus(t, rng, 300, 280)
	opt := Options{K: 200, Workers: 1}
	JoinAll(cor, c, opt)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := JoinAll(cor, c, opt)
	runtime.ReadMemStats(&after)
	listBytes := 0
	for _, l := range res.Lists {
		listBytes += cap(l.Pairs) * int(unsafe.Sizeof(ScoredPair{}))
	}
	// The budget is a fifth of what the per-call id buffer and the
	// per-config heap growth cost on these tables (about 90 KB).
	const budget = 16 << 10
	if delta := int(after.TotalAlloc - before.TotalAlloc); delta > listBytes+budget {
		t.Errorf("warm JoinAll allocated %d bytes over %d configs: lists take %d, leaving %d for bookkeeping, want at most %d",
			delta, len(res.Lists), listBytes, delta-listBytes, budget)
	}
}
