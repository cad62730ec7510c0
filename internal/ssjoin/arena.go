package ssjoin

// Pooled buffers of the row-local join kernel (DESIGN.md "Row-local
// join kernel"). This file holds its substrate:
//
//   - denseInstances: each config's token instances numbered with dense
//     int32 ids straight from the records' rank-sorted entries (no map),
//     so every per-instance table downstream is a plain slice indexed by
//     id.
//   - rowProbe: the pooled per-join buffer block — instance ids, B's
//     posting-list slab, the |B|-sized row array, the top-k heap and
//     the absorbed-pair marks — reused across joins and configs through
//     probePool.
//
// Sizing (wire/grow) and the index build allocate, and only on buffer
// growth; the row loop itself only indexes into these buffers — see
// join_row.go for the //mc:hotpath methods.

import (
	"math/bits"
	"runtime"
	"sync"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/telemetry"
)

// denseInstances holds one config's token-instance lists as dense int32
// ids. Under config γ a record's entry for the token of rank t expands
// into popcount(mask∧γ) instances; instance (t, occ) gets id
// base[t]+occ, where base is the prefix sum over ranks of
// popcount(Corpus.tokMask[t]∧γ): a bijection on (t, occ) into [0, n),
// with no map. Ids ascend in the one global rare-first rank order, which
// is what the kernel's positional filter and row-end bound rely on; the
// numbering itself never reaches the output (DESIGN.md "Row-local join
// kernel"). Ids no record uses get empty posting lists.
//
// It lives in the pooled rowProbe block: tokenize overwrites everything
// it hands out, so the block's next config reuses it, and a block serves
// one join at a time.
type denseInstances struct {
	a, b    [][]int32 // lists split into A's records and B's
	n       int       // every id lies in [0, n)
	lists   [][]int32 // per record, A's then B's: its ids, in backing
	base    []int32   // per token rank: its first id
	lens    []int32   // per record: its instance count
	backing []int32
}

// tokenize fills d with both sides' ids under mask. Each record's ids
// are written straight from its rank-sorted entries, so they strictly
// ascend. A warm buffer allocates nothing.
func (d *denseInstances) tokenize(cor *Corpus, mask config.Mask) {
	mm := uint16(mask)
	d.base = grow(d.base, len(cor.tokMask))
	n := int32(0)
	for t, tm := range cor.tokMask {
		d.base[t] = n
		n += int32(bits.OnesCount16(tm & mm))
	}
	d.n = int(n)

	recs := cor.NumA() + cor.NumB()
	d.lens = grow(d.lens, recs)
	total := 0
	for i := range d.lens {
		l := cor.rec(i).lenUnder(mask)
		d.lens[i] = int32(l)
		total += l
	}
	d.backing = grow(d.backing, total)
	d.lists = grow(d.lists, recs)
	off := 0
	for i, l := range d.lens {
		end := off + int(l)
		d.lists[i] = d.backing[off:end:end]
		off = end
	}
	d.a, d.b = d.lists[:cor.NumA()], d.lists[cor.NumA():]
	d.fill(cor, mm)
}

// fill writes every record's ids.
//
//mc:hotpath
func (d *denseInstances) fill(cor *Corpus, mm uint16) {
	for i, dst := range d.lists {
		j := 0
		for _, e := range cor.rec(i).entries {
			id := d.base[e.tok]
			for occ := bits.OnesCount16(e.mask & mm); occ > 0; occ-- {
				dst[j] = id
				id++
				j++
			}
		}
	}
}

// postEntry is one entry of B's index: record b holds the instance at
// position pos, and cap = ExtendCap(pos, |b|) bounds the score of any
// pair whose first common instance it is. Each posting list is sorted
// by cap descending (b ascending on ties), so a probe stops at the first
// entry below the current k-th score.
type postEntry struct {
	cap    float64
	b, pos int32
}

// rowDead marks a row-array entry whose pair is settled for this row:
// killed by a strict pair filter, in C, or already offered (an absorbed
// seed or merge pair). Non-negative entries count common instances.
const rowDead = -1

// Strict pair-filter tiers (Progress / Stats vocabulary).
const (
	tierLengthFilter int8 = iota
	tierPrefixPos
)

// filterKillHook, when non-nil, observes every pair killed by a strict
// pair filter. Test instrumentation only (the filter property tests
// replay killed pairs against the brute-force oracle); production runs
// pay one nil check per kill.
var filterKillHook func(a, b int32, tier int8)

// rowProbe is one config join's state: every lookup the row loop makes
// is a slice index. The struct doubles as the pooled scratch block —
// join() tokenizes into ids, wire() grows the other buffers to the
// join's sizes and resets per-join state, and release() drops the
// per-join references (C, the done channel, span) while keeping
// the buffers for the next join.
type rowProbe struct {
	// Per-join wiring (cleared on release).
	m    simfunc.SetMeasure
	c    *blocker.PairSet
	rs   *runStats
	cur  progCursor
	done <-chan struct{}
	span *telemetry.TraceSpan

	// ids is the config's instance-id lists, filled before wire; top is
	// the config's top-k heap, emptied by wire. Both keep their storage
	// across joins: join copies the sorted list out of top before the
	// block goes back to the pool.
	ids denseInstances
	top topkHeap

	// B's index, built once per join: id's posting list is
	// post[off[id]:off[id+1]].
	off  []int32
	post []postEntry

	// row[b] is the current row's state for pair (a, b): its common
	// instances counted so far, or rowDead. cands lists every b the row
	// touched or marked, in that order; the row end visits it and
	// zeroes exactly those entries, so row is all zeros between rows.
	row   []int32
	cands []int32

	// marks holds the absorbed seed pairs, sorted by (A, B); those from
	// markAt on belong to rows that have not run yet. A row marks its own
	// before it probes, so no pair is offered twice.
	marks  []ScoredPair
	markAt int

	// t is the threshold the current row probes at: the k-th score when
	// the row started (0 while the heap is not full). It only rises, and
	// gen counts its rises. prefEnd[l] is how many leading positions of
	// a length-l record have a cap >= t — valid while prefGen[l] == gen
	// (see visible).
	t       float64
	gen     uint32
	prefEnd []int32
	prefGen []uint32

	// steps counts rows and posting entries walked; the loop reaches a
	// checkpoint (progress and cancellation) each time it passes
	// nextCheck.
	steps, nextCheck int
}

// probePool recycles rowProbe blocks across joins and configs:
// steady-state joins of similar size never reallocate the index, the row
// array or the heaps. It is a free list of at most GOMAXPROCS blocks, not
// a sync.Pool: a sync.Pool drops what it holds across two GC cycles, and
// with the kernel's small heap a session's verifier rounds often pass
// that many between two joins, so sessions kept rebuilding their blocks.
// The cap bounds what the list keeps alive to one block per P.
var probePool struct {
	mu   sync.Mutex
	free []*rowProbe
}

func getRowProbe() *rowProbe {
	probePool.mu.Lock()
	defer probePool.mu.Unlock()
	n := len(probePool.free)
	if n == 0 {
		return &rowProbe{}
	}
	p := probePool.free[n-1]
	probePool.free[n-1] = nil
	probePool.free = probePool.free[:n-1]
	return p
}

func putRowProbe(p *rowProbe) {
	p.release()
	probePool.mu.Lock()
	defer probePool.mu.Unlock()
	if len(probePool.free) < runtime.GOMAXPROCS(0) {
		probePool.free = append(probePool.free, p)
	}
}

// release drops everything join-specific so the pool never pins a
// candidate set or a channel. Buffers survive.
func (p *rowProbe) release() {
	p.c = nil
	p.rs = nil
	p.cur = progCursor{}
	p.done = nil
	p.span = nil
}

// grow returns s resized to n, reusing capacity when it suffices.
// Contents are unspecified — callers clear or overwrite what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
