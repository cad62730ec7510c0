package ssjoin

// Flat-arena buffers for the map-free probe path (DESIGN.md "Flat-arena
// join kernel"). The QJoin probe loop used to route every candidate
// through two hash maps — map[int64]*postings posting-list lookups and a
// map[int64]int32 pair-state table — which dominated the join's cache
// misses and allocation once the heaps were de-boxed. This file holds
// the replacement substrate:
//
//   - denseInstances: each config's token instances numbered with dense
//     int32 ids straight from the records' rank-sorted entries (no map),
//     so every per-instance table downstream is a plain slice indexed by
//     id. The buffer is reused across the configs one join worker runs.
//   - flatProbe: the pooled per-shard buffer block — posting-list arena
//     (one contiguous postEntry slab per side plus per-id offset/fill
//     tables), packed pair states, event-heap and position scratch —
//     reused across probes and configs through probePool. Pair states
//     live in a dense epoch-stamped table (never cleared: the epoch
//     stamp makes stale entries invisible) or, past denseStateLimit, in
//     a pairTable sized to the pairs the probe touches.
//
// Sizing (wire/grow) and the arena count pass allocate; they run in the
// index phase of each probe. The probe loop itself only indexes into
// these buffers — see join_flat.go for the //mc:hotpath methods — except
// that a pairTable doubles, out of line, when the probe outgrows it.

import (
	"math/bits"
	"sync"
	"sync/atomic"

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
// with no map. Nothing in the join orders by id, so the numbering cannot
// reach the output (DESIGN.md "Flat-arena join kernel"). Ids no record
// uses get empty posting regions.
//
// It is a reusable buffer: tokenize overwrites everything it hands out,
// so a JoinAll worker passes one to each config it runs in turn. The
// shards of one probe read it; concurrent joins must not share it.
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
// ascend. That pass is a pure function of each record, so it fans out
// over record ranges with no effect on the output; workers <= 1 runs
// inline, where a warm buffer allocates nothing.
func (d *denseInstances) tokenize(cor *Corpus, mask config.Mask, workers int) {
	mm := uint16(mask)
	d.base = grow(d.base, len(cor.tokMask))
	n := int32(0)
	for t, tm := range cor.tokMask {
		d.base[t] = n
		n += int32(bits.OnesCount16(tm & mm))
	}
	d.n = int(n)

	recs := len(cor.recsA) + len(cor.recsB)
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
	d.a, d.b = d.lists[:len(cor.recsA)], d.lists[len(cor.recsA):]

	if workers <= 1 || recs < 2*minParallelTokenize {
		d.fill(cor, mm, 0, recs)
		return
	}
	workers = min(workers, recs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := recs*w/workers, recs*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.fill(cor, mm, lo, hi)
		}()
	}
	wg.Wait()
}

// minParallelTokenize is the per-worker record count under which spawning
// tokenize goroutines costs more than it saves.
const minParallelTokenize = 256

// fill writes the ids of records [lo, hi).
//
//mc:hotpath
func (d *denseInstances) fill(cor *Corpus, mm uint16, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst, j := d.lists[i], 0
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

// postEntry is one posting-list entry: a record plus the prefix position
// at which it popped the instance. The position feeds the positional
// prefix filter — token instances are globally rank-sorted in every
// record, so a pair first meeting at positions (i, j) shares at most
// 1 + min(lxRem, lyRem) instances (see flatProbe.touch).
type postEntry struct {
	rec, pos int32
}

// Candidate pair-state sentinels: non-negative values count common
// prefix instances; the sentinels mark pairs already scored, present in
// C, or killed by a strict pair filter.
const (
	pairScored     = -1
	pairSuppressed = -2
	pairKilled     = -3
)

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

// denseStateLimit bounds the dense pair-state table: a config whose full
// pair space (|A| × |B|) exceeds this many pairs keeps its pair states
// in the hashed pairTable instead. At one packed byte per pair, 32Mi
// pairs keep the dense tables at 32 MiB for the whole config regardless
// of shard count (the per-shard tables tile the pair space) — small
// enough to stay largely cache-resident, which is what makes the dense
// store win. The perf-gate M2 workload (25M pairs at scale 0.1) fits;
// the paper's full-scale corpora (billions of pairs) take the hashed
// store, whose memory scales with the pairs touched. Var, not const: the
// tests shrink it to drive both stores over the same corpora.
var denseStateLimit = 32 << 20

// maxPackedQ bounds q: packed states count common prefix instances in
// four bits (three sentinels plus counts up to 12). runJoin clamps q to
// it, which cannot change the output: the join is exact for every q, so
// q decides only when a pair is scored.
const maxPackedQ = 12

// flatProbe is one shard's map-free probe state: every lookup the event
// loop performs is a slice index (or, past denseStateLimit, a flat
// open-addressing probe). The struct doubles as the pooled scratch
// block — wire() grows the buffers to the probe's sizes and resets
// per-probe state, and release() drops the per-probe references (corpus
// lists, scorer, heaps) while keeping the buffers and the pair epoch for
// the next probe.
type flatProbe struct {
	// Per-probe wiring (cleared on release).
	q       int
	m       simfunc.SetMeasure
	c       *blocker.PairSet
	score   scorer
	rs      *runStats
	top     *topkHeap
	cur     progCursor
	cancel  *atomic.Bool
	mergeCh <-chan []ScoredPair
	span    *telemetry.TraceSpan
	idsA    [][]int32
	idsB    [][]int32

	// Shard geometry: the sharded side's records are dealt round-robin
	// (rec mod div == shard owns it); rowOff maps an owned sharded-side
	// record to its pair-index row base (local index × otherLen, 64-bit:
	// past denseStateLimit the shard-local pair space outgrows int32).
	side     int8
	shard    int32
	div      int32
	otherLen int32

	// Pooled buffers (kept across probes). touched records the pair index
	// of every pair that reached a positive common-instance count, so the
	// exactness flush can visit candidates directly instead of scanning
	// the whole pair space (sorted ascending, the list reproduces the
	// dense scan order exactly). Dense indices fit int32; the hashed
	// store's 64-bit ones go to touchedKeys, so the dense list — which a
	// fresh pooled probe regrows on every config — stays half the size.
	posA, posB   []int32
	rowOff       []int64
	touched      []int32
	touchedKeys  []int64
	events       eventHeap
	offA, fillA  []int32
	offB, fillB  []int32
	slabA, slabB []postEntry

	// Dense pair state, one packed byte per pair: the high nibble is the
	// epoch stamp, the low nibble a signed state (common-instance count
	// or a pair* sentinel, offset-encoded). One byte per pair keeps the
	// whole table cache-resident up to denseStateLimit — the probe loop's
	// one random load per touch is the kernel's bottleneck. An entry is
	// meaningful only while its stamp equals epoch, so reuse across
	// probes never clears the table — resetPairs bumps the epoch and
	// every stale entry reads as unseen. A nibble of epoch means a real
	// wraparound every 15 probes; the wrap path (clear + restart at 1) is
	// therefore exercised constantly, not just in the white-box test.
	pairs []uint8
	epoch uint8

	// hashed selects the hashed store for this probe: table holds the
	// same packed bytes keyed by pair index, and pairs is left alone.
	hashed bool
	table  pairTable
}

// probePool recycles flatProbe buffer blocks across probes and configs
// (the zero-alloc hot-loop discipline of the ssdeep-style kernels):
// steady-state joins of similar size never reallocate position arrays,
// arena tables, slabs, or pair-state tables.
var probePool = sync.Pool{New: func() any { return &flatProbe{} }}

func getFlatProbe() *flatProbe  { return probePool.Get().(*flatProbe) }
func putFlatProbe(p *flatProbe) { p.release(); probePool.Put(p) }

// release drops everything probe-specific so the pool never pins a
// corpus, scorer, or result heap. Buffers and the pair epoch survive.
func (p *flatProbe) release() {
	p.c = nil
	p.score = nil
	p.rs = nil
	p.top = nil
	p.cur = progCursor{}
	p.cancel = nil
	p.mergeCh = nil
	p.span = nil
	p.idsA = nil
	p.idsB = nil
}

// grow returns s resized to n, reusing capacity when it suffices.
// Contents are unspecified — callers clear or overwrite what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// resetPairs prepares the pair-state store for a probe over pairSpace
// pairs. For the dense table the normal path is O(1): bump the epoch so
// every stale entry reads as unseen. Growth and epoch wraparound are the
// two slow paths that must re-zero the table — the classic dense-reset
// bug is forgetting one of them (TestEpochReset pins both). A fresh
// table is all zeros, which no live entry ever aliases because the epoch
// restarts at 1, never 0.
//
// The hashed store is cleared instead, and leaves the epoch alone: the
// pooled dense table's stamps are all <= epoch, and resetting the epoch
// without clearing that table would let the next dense probe alias them.
// Its fresh slots read as zero bytes (stamp 0), so the epoch only has to
// be nonzero.
func (p *flatProbe) resetPairs(pairSpace int, hashed bool) {
	p.hashed = hashed
	if hashed {
		p.table.reset()
		if p.epoch == 0 {
			p.epoch = 1
		}
		return
	}
	if cap(p.pairs) < pairSpace {
		p.pairs = make([]uint8, pairSpace)
		p.epoch = 1
		return
	}
	p.pairs = p.pairs[:pairSpace]
	p.epoch++
	if p.epoch == 16 { // nibble wraparound: stale stamps would alias epoch 0
		clear(p.pairs[:cap(p.pairs)])
		p.epoch = 1
	}
}

// pairPack encodes an epoch stamp and a signed state into one table
// byte: epoch in the high nibble, state offset by pairKilled (the most
// negative sentinel) in the low nibble, so states span -3..12. A zero
// byte decodes to epoch 0, which is never current — fresh tables need no
// initialization beyond the runtime's zeroing. pairState decodes the
// state half (callers compare the stamp half against the current epoch
// themselves).
func pairPack(ep uint8, st int8) uint8 { return ep<<4 | uint8(st-pairKilled) }
func pairState(v uint8) int8           { return int8(v&15) + pairKilled }
func pairEpoch(v uint8) uint8          { return v >> 4 }

// pairTable is the hashed pair-state store for pair spaces past
// denseStateLimit: open addressing with linear probing over a
// power-of-two slot array, keyed by the shard-local pair index (the
// index the dense table would use). A slot holds the same packed byte a
// dense entry does; a fresh slot's byte is zero, which reads as unseen
// exactly like a stale dense entry. Load stays at most ½ — the insert
// that would pass it doubles the table — so the table is sized to the
// pairs the probe touches, never to |A|×|B|. The slots survive pooling;
// reset clears them.
type pairTable struct {
	slots []pairSlot
	shift uint8 // 64 - log2(len(slots))
	used  int
}

// pairSlot is one table entry: the pair index plus one (so the zero
// slot is empty), split into 32-bit halves so a slot packs into 12
// bytes instead of 16, and the state byte.
type pairSlot struct {
	lo, hi uint32
	v      uint8
}

func (s *pairSlot) key() uint64 { return uint64(s.hi)<<32 | uint64(s.lo) }

// minPairSlots is a fresh table's size; growth takes it from there.
const minPairSlots = 1 << 12

// slot is key's home slot: Fibonacci hashing, whose multiply spreads
// the row-major pair indices (runs of consecutive keys) over the table.
func (t *pairTable) slot(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// cell returns pair idx's state byte, inserting a fresh (zero) slot on
// the first lookup. The pointer is valid until the next insert.
//
//mc:hotpath
func (t *pairTable) cell(idx int64) *uint8 {
	key := uint64(idx) + 1
	mask := len(t.slots) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.key() {
		case key:
			return &s.v
		case 0:
			if 2*(t.used+1) > len(t.slots) {
				t.grow()
				return t.cell(idx)
			}
			t.used++
			s.lo, s.hi = uint32(key), uint32(key>>32)
			return &s.v
		}
	}
}

// grow doubles the table and rehashes every occupied slot into it.
func (t *pairTable) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.key() == 0 {
			continue
		}
		i := t.slot(s.key())
		for t.slots[i].key() != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

func (t *pairTable) alloc(n int) {
	t.slots = make([]pairSlot, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
}

// reset empties the table for the next probe, keeping its size.
func (t *pairTable) reset() {
	if t.slots == nil {
		t.alloc(minPairSlots)
	} else if t.used > 0 {
		clear(t.slots)
	}
	t.used = 0
}
