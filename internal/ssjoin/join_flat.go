package ssjoin

// The flat-arena probe kernel (DESIGN.md "Flat-arena join kernel"): the
// QJoin prefix-event loop of Section 4.1 with every lookup a slice
// index, plus the ShallowBlocker-style length and positional prefix
// filters as two additional strict prunes. Canonical reports embed the
// runStats counters, so the two pair-state stores must produce the same
// counter stream as well as the same top-k bytes: they differ only in
// where a pair's state byte lives, never in the order anything is
// visited.
//
// Layout recap (arena.go holds the structures):
//
//	posting arena   offX[id], fillX[id] index a postEntry slab per side;
//	                the index-phase count pass sizes each id's region, so
//	                the probe loop appends with one store + one increment.
//	pair state      one packed byte (epoch stamp + signed state) per pair
//	                index rowOff[sharded]+other: pairs[idx] in the dense
//	                table, reset between probes by one epoch bump; or a
//	                pairTable slot past denseStateLimit, cleared on reset.
//
// Everything on the pop→touch→score path carries //mc:hotpath: mclint's
// hotalloc analyzer plus the -escapes compile prove the loop stays
// allocation-free statically, and TestFlatProbePathZeroAllocs pins it
// dynamically over the whole probe (index build excluded).

import (
	"slices"
	"strconv"

	"matchcatcher/internal/telemetry"
)

// wire binds the probe to one shard's run and sizes the pooled buffers:
// geometry normalization, pair-store choice and reset, position/arena-
// table sizing, and the pair-index row bases for the owned sharded-side
// records. It runs before the seed absorb (seeds must warm the top-k
// heap before event seeding so the push-cap prune sees them). May
// allocate, but only on buffer growth — steady-state reuse through the
// pool allocates nothing.
func (p *flatProbe) wire(opt runOpts, view shardView, ids *denseInstances,
	rs *runStats, score scorer, top *topkHeap, pc *shardCounters,
	mergeCh <-chan []ScoredPair, span *telemetry.TraceSpan) {

	nA, nB := len(ids.a), len(ids.b)
	p.q = opt.q
	p.m = opt.m
	p.c = opt.c
	p.score = score
	p.rs = rs
	p.top = top
	p.cur = progCursor{slot: pc}
	p.cancel = opt.cancel
	p.mergeCh = mergeCh
	p.span = span
	p.idsA, p.idsB = ids.a, ids.b

	// Normalize the geometry: an unsharded probe is "side A dealt to one
	// shard", so the state layout has a single shape everywhere.
	p.side, p.shard, p.div = 0, 0, 1
	if view.shards > 1 {
		p.side = view.side
		p.shard = int32(view.shard)
		p.div = int32(view.shards)
	}
	sideLen, otherLen := nA, nB
	if p.side == 1 {
		sideLen, otherLen = nB, nA
	}
	p.otherLen = int32(otherLen)
	owned := sideLen
	if p.div > 1 {
		owned = (sideLen - int(p.shard) + int(p.div) - 1) / int(p.div)
	}
	// The store follows the config's whole pair space, so every shard of
	// one config picks the same one and the dense tables of all shards
	// together stay within denseStateLimit bytes.
	p.resetPairs(owned*otherLen, nA*nB > denseStateLimit)

	p.posA = grow(p.posA, nA)
	clear(p.posA)
	p.posB = grow(p.posB, nB)
	clear(p.posB)
	p.rowOff = grow(p.rowOff, sideLen)
	p.offA = grow(p.offA, ids.n)
	p.fillA = grow(p.fillA, ids.n)
	clear(p.fillA)
	p.offB = grow(p.offB, ids.n)
	p.fillB = grow(p.fillB, ids.n)
	clear(p.fillB)
	p.events.items = p.events.items[:0]
	p.touched = p.touched[:0]
	p.touchedKeys = p.touchedKeys[:0]

	local := int64(0)
	for i := p.shard; i < int32(sideLen); i += p.div {
		p.rowOff[i] = local * int64(otherLen)
		local++
	}
}

// pairIdx is pair (a, b)'s shard-local pair index: the owned
// sharded-side record's row base plus the other record's id. Row-major,
// so ascending indices visit (owned record asc, other record asc).
//
//mc:hotpath
func (p *flatProbe) pairIdx(a, b int32) int64 {
	if p.side == 0 {
		return p.rowOff[a] + int64(b)
	}
	return p.rowOff[b] + int64(a)
}

// pairOf inverts pairIdx.
//
//mc:hotpath
func (p *flatProbe) pairOf(idx int64) (a, b int32) {
	row := idx / int64(p.otherLen)
	o := int32(idx - row*int64(p.otherLen))
	rec := p.shard + int32(row)*p.div
	if p.side == 0 {
		return rec, o
	}
	return o, rec
}

// cell returns pair idx's packed state byte. The dense branch is one
// index and stays inlined at every call site; the hashed lookup (with
// its growth path) is out of line.
//
//mc:hotpath
func (p *flatProbe) cell(idx int64) *uint8 {
	if p.hashed {
		return p.table.cell(idx)
	}
	return &p.pairs[idx]
}

// seed is the index phase: one pass over each side counting owned
// instances per dense id (into the fill tables, converted to slab
// offsets below) and pushing each owned record's first prefix event, A
// ascending then B ascending. Returns the owned-instance total for the
// progress tracker.
func (p *flatProbe) seed() int64 {
	var ownedInstances int64
	for i := int32(0); i < int32(len(p.idsA)); i++ {
		if p.side == 0 && p.div > 1 && i%p.div != p.shard {
			continue
		}
		for _, id := range p.idsA[i] {
			p.fillA[id]++
		}
		ownedInstances += int64(len(p.idsA[i]))
		p.push(0, i)
	}
	for i := int32(0); i < int32(len(p.idsB)); i++ {
		if p.side == 1 && p.div > 1 && i%p.div != p.shard {
			continue
		}
		for _, id := range p.idsB[i] {
			p.fillB[id]++
		}
		ownedInstances += int64(len(p.idsB[i]))
		p.push(1, i)
	}
	p.slabA = grow(p.slabA, sumToOffsets(p.offA, p.fillA))
	p.slabB = grow(p.slabB, sumToOffsets(p.offB, p.fillB))
	return ownedInstances
}

// sumToOffsets turns per-id counts into exclusive-prefix-sum offsets,
// zeroing the counts so they can serve as the probe loop's fill cursors.
// Returns the slab size.
func sumToOffsets(off, cnt []int32) int {
	total := int32(0)
	for i, c := range cnt {
		off[i] = total
		total += c
		cnt[i] = 0
	}
	return int(total)
}

// push queues a record's next prefix-extension event unless its score
// cap proves no new top-k pair can come from the remaining tail.
//
//mc:hotpath
func (p *flatProbe) push(side int8, rec int32) {
	var pos int32
	var l int
	if side == 0 {
		pos, l = p.posA[rec], len(p.idsA[rec])
	} else {
		pos, l = p.posB[rec], len(p.idsB[rec])
	}
	if int(pos) >= l {
		return
	}
	cap := p.m.ExtendCap(int(pos), l)
	if p.top.full() && cap < p.top.kthScore() {
		p.rs.n[cKillsPushCap]++
		// The record's remaining tail dies with the kill: it is never
		// re-pushed, so those instances are accounted as skipped.
		p.rs.n[cProbesSkipped] += int64(l - int(pos))
		return // this string can never produce a new top-k pair
	}
	p.events.push(event{cap: cap, side: side, rec: rec})
}

// touch advances pair (a, b) by one common instance, met at prefix
// positions (pa, pb) of the respective records. First touch runs the
// blocker-suppression check and the two strict pair filters; q common
// instances trigger the exact score.
//
// Filter soundness (why killing here cannot change the output): both
// records list their instances in the one global rare-first rank order,
// so for any instance common to a and b, its list positions advance in
// lockstep — a common instance before (pa, pb) in BOTH lists would have
// been touched already (each side pops positions sequentially; the
// touch fires at the later pop), contradicting first touch, and order
// preservation puts every other common instance strictly after pa in
// a's list AND after pb in b's. Hence at first touch
//
//	overlap(a, b) <= 1 + min(lx-pa-1, ly-pb-1)   (positional prefix)
//	overlap(a, b) <= min(lx, ly)                 (length, trivially)
//
// and FromOverlap is monotone in the overlap, so each bound caps the
// pair's final score. Both prunes are strict (< the current k-th score,
// which only ever rises): a killed pair scores strictly below every
// future k-th score, so it could never be retained — not even via the
// equal-score id tie-break — and the heap evolves bit-identically to a
// run without the filters. The kill just skips the merge-scoring work.
//
//mc:hotpath
func (p *flatProbe) touch(a, b, pa, pb int32) {
	idx := p.pairIdx(a, b)
	cell := p.cell(idx)
	v := *cell
	st := int32(pairState(v))
	if pairEpoch(v) != p.epoch {
		st = 0
		if p.c.Contains(int(a), int(b)) {
			*cell = pairPack(p.epoch, pairSuppressed)
			p.rs.n[cSuppressedPairs]++
			return
		}
		if p.top.full() {
			lx, ly := len(p.idsA[a]), len(p.idsB[b])
			kth := p.top.kthScore()
			mo := min(lx, ly)
			if p.m.FromOverlap(mo, lx, ly) < kth {
				*cell = pairPack(p.epoch, pairKilled)
				p.rs.n[cKillsLengthFilter]++
				if filterKillHook != nil {
					filterKillHook(a, b, tierLengthFilter)
				}
				return
			}
			if rem := 1 + min(lx-int(pa)-1, ly-int(pb)-1); rem < mo {
				if p.m.FromOverlap(rem, lx, ly) < kth {
					*cell = pairPack(p.epoch, pairKilled)
					p.rs.n[cKillsPrefixPos]++
					if filterKillHook != nil {
						filterKillHook(a, b, tierPrefixPos)
					}
					return
				}
			}
		}
	} else if st < 0 {
		return
	}
	st++
	if int(st) >= p.q {
		*cell = pairPack(p.epoch, pairScored)
		p.top.offer(ScoredPair{A: a, B: b, Score: p.score(a, b)})
		return
	}
	*cell = pairPack(p.epoch, int8(st))
	if st == 1 {
		// First positive count: remember the pair for the exactness
		// flush (states never return to zero within an epoch, so each
		// deferred pair is recorded exactly once). Amortized append into
		// a pooled buffer — steady state allocates nothing.
		if p.hashed {
			p.touchedKeys = append(p.touchedKeys, idx)
		} else {
			p.touched = append(p.touched, int32(idx))
		}
	}
}

// absorb folds a parent config's top-k pairs into this run, rescoring
// each pair under this config (scores do not transfer across configs;
// the scorer answers from the parent's overlap DB when reuse is on).
// Unseen C pairs are suppressed silently (no counter).
func (p *flatProbe) absorb(list []ScoredPair) {
	if len(list) > 0 {
		p.span.Event("absorb", telemetry.L("pairs", strconv.Itoa(len(list))))
	}
	for _, pr := range list {
		cell := p.cell(p.pairIdx(pr.A, pr.B))
		v := *cell
		if pairEpoch(v) != p.epoch {
			if p.c.Contains(int(pr.A), int(pr.B)) {
				*cell = pairPack(p.epoch, pairSuppressed)
				continue
			}
		} else if pairState(v) < 0 {
			continue
		}
		*cell = pairPack(p.epoch, pairScored)
		p.top.offer(ScoredPair{A: pr.A, B: pr.B, Score: p.score(pr.A, pr.B)})
	}
}

// probe runs the prefix-event loop to completion (or cancellation —
// returns true). Pop the highest-cap extension, join the new instance
// against the opposite side's arena region, append self, requeue. The
// stride-1023 checkpoint carries progress flushes, cancellation, and
// mid-run merge arrivals.
//
//mc:hotpath
func (p *flatProbe) probe() bool {
	steps := 0
	for p.events.Len() > 0 {
		if steps++; steps&1023 == 0 {
			// Progress sampling rides the loop's existing stride
			// checkpoint: one delta flush per progressStride pops.
			p.cur.flush(p.rs, p.events.Len(), p.top.Len())
			if p.cancel != nil && p.cancel.Load() {
				return true
			}
			if p.mergeCh != nil {
				select {
				case list := <-p.mergeCh:
					p.absorb(list)
				default:
				}
			}
		}
		ev := p.events.items[0]
		if p.top.full() && ev.cap < p.top.kthScore() {
			p.rs.n[cKillsLoopBreak] += int64(p.events.Len())
			// Every record still in the heap dies here; account its
			// unpopped tail so done+skipped still converges to the
			// owned-instance total. One pass over the heap, once per shard.
			for _, dead := range p.events.items {
				if dead.side == 0 {
					p.rs.n[cProbesSkipped] += int64(len(p.idsA[dead.rec]) - int(p.posA[dead.rec]))
				} else {
					p.rs.n[cProbesSkipped] += int64(len(p.idsB[dead.rec]) - int(p.posB[dead.rec]))
				}
			}
			return false
		}
		p.events.pop()
		p.rs.n[cPrefixEvents]++
		if ev.side == 0 {
			pos := p.posA[ev.rec]
			inst := p.idsA[ev.rec][pos]
			p.posA[ev.rec] = pos + 1
			off, n := p.offB[inst], p.fillB[inst]
			for _, pe := range p.slabB[off : off+n] {
				p.touch(ev.rec, pe.rec, pos, pe.pos)
			}
			p.slabA[p.offA[inst]+p.fillA[inst]] = postEntry{rec: ev.rec, pos: pos}
			p.fillA[inst]++
		} else {
			pos := p.posB[ev.rec]
			inst := p.idsB[ev.rec][pos]
			p.posB[ev.rec] = pos + 1
			off, n := p.offA[inst], p.fillA[inst]
			for _, pe := range p.slabA[off : off+n] {
				p.touch(pe.rec, ev.rec, pe.pos, pos)
			}
			p.slabB[p.offB[inst]+p.fillB[inst]] = postEntry{rec: ev.rec, pos: pos}
			p.fillB[inst]++
		}
		p.push(ev.side, ev.rec)
	}
	return false
}

// flushPair bound-checks one deferred pair (st common instances seen,
// exact score still unknown) and scores it if the optimistic bound ties
// or beats the k-th score. Every uncounted common instance lies beyond
// at least one final prefix, so overlap <= count + (lx-px) + (ly-py).
//
//mc:hotpath
func (p *flatProbe) flushPair(a, b, st int32) {
	p.rs.n[cDeferredPairs]++
	lx, ly := len(p.idsA[a]), len(p.idsB[b])
	oMax := int(st) + (lx - int(p.posA[a])) + (ly - int(p.posB[b]))
	if m := min(lx, ly); oMax > m {
		oMax = m
	}
	if p.top.full() && p.m.FromOverlap(oMax, lx, ly) < p.top.kthScore() {
		p.rs.n[cKillsFlushBound]++
		return
	}
	p.rs.n[cFlushedPairs]++
	p.top.offer(ScoredPair{A: a, B: b, Score: p.score(a, b)})
}

// flushIdx flushes pair idx if it is still deferred.
//
//mc:hotpath
func (p *flatProbe) flushIdx(idx int64) {
	v := *p.cell(idx)
	if st := int32(pairState(v)); pairEpoch(v) == p.epoch && st > 0 {
		a, b := p.pairOf(idx)
		p.flushPair(a, b, st)
	}
}

// finish is the exactness flush: pending pairs (seen < q common
// instances) may still belong in the top-k. The deterministic visit
// order is ascending pair index — (owned sharded-side record asc, other
// record asc) — whichever store holds the states (the k-th score rises
// as flushed pairs are admitted, so the visit order shapes the counters;
// the list itself is order-independent by the total-order retention).
// Each pair is visited once, so its state needs no update. Sorting the
// touched list reproduces that order without scanning the pair space;
// the hashed store always takes it, and a dense probe takes it unless
// it touched so much of its table that the straight scan, which needs
// no sort because the scan IS the order, is cheaper.
//
//mc:hotpath
func (p *flatProbe) finish() {
	if p.otherLen == 0 {
		return
	}
	if p.hashed {
		slices.Sort(p.touchedKeys)
		for _, idx := range p.touchedKeys {
			p.flushIdx(idx)
		}
		return
	}
	n := int64(len(p.pairs))
	// Crossover: the dense scan is sequential byte loads (memory
	// bandwidth), the sparse path pays a sort plus scattered loads —
	// roughly two orders of magnitude more per entry visited.
	if int64(len(p.touched))*64 < n {
		slices.Sort(p.touched)
		for _, idx := range p.touched {
			p.flushIdx(int64(idx))
		}
		return
	}
	for idx := int64(0); idx < n; idx++ {
		if v := p.pairs[idx]; pairEpoch(v) == p.epoch && pairState(v) > 0 {
			p.flushIdx(idx)
		}
	}
}

// joinShard is one shard's exact QJoin (Section 4.1) restricted to the
// records the view owns, probing through a pooled flatProbe. Shards are
// exact on their (disjoint) slices of the pair space, so the merged
// result is the exact top-k whatever the shard count.
func joinShard(opt runOpts, view shardView, ids *denseInstances,
	rs *runStats, score scorer, seeds []ScoredPair,
	mergeCh <-chan []ScoredPair, span *telemetry.TraceSpan,
	pc *shardCounters) *topkHeap {

	top := newTopkHeap(opt.k)
	p := getFlatProbe()
	p.wire(opt, view, ids, rs, score, top, pc, mergeCh, span)
	p.absorb(seeds)

	idxSpan := span.Child("ssjoin.index")
	owned := p.seed()
	if pc != nil {
		pc.probesTotal.Add(owned)
	}
	idxSpan.SetAttrInt("events_seeded", int64(p.events.Len()))
	// Which pair-state store runs this probe, and its slot count: the
	// dense pair space, or the hashed table's size as the probe starts.
	store, slots := "dense", len(p.pairs)
	if p.hashed {
		store, slots = "hashed", len(p.table.slots)
	}
	idxSpan.SetAttr("pair_store", store)
	idxSpan.SetAttrInt("pair_slots", int64(slots))
	idxSpan.End()

	probeSpan := span.Child("ssjoin.probe")
	if cancelled := p.probe(); cancelled {
		probeSpan.Event("cancelled")
		probeSpan.End()
		p.cur.flush(rs, p.events.Len(), top.Len())
		putFlatProbe(p)
		return top
	}
	probeSpan.SetAttrInt("prefix_events", rs.n[cPrefixEvents])
	probeSpan.SetAttrInt("prune_kills", rs.pruneKills())
	probeSpan.End()

	// Drain any merge list that arrived after the loop ended.
	if mergeCh != nil {
		select {
		case list := <-mergeCh:
			p.absorb(list)
		default:
		}
	}

	topkSpan := span.Child("ssjoin.topk")
	p.finish()
	topkSpan.SetAttrInt("deferred_pairs", rs.n[cDeferredPairs])
	topkSpan.SetAttrInt("flushed_pairs", rs.n[cFlushedPairs])
	topkSpan.End()
	// Terminal flush: publish the final counters and zero the live heap
	// gauge (the shard is done; residual dead events are not a live heap).
	p.cur.flush(rs, 0, top.Len())
	putFlatProbe(p)
	return top
}
