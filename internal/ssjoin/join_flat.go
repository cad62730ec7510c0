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
//	                index a·|B|+b: pairs[idx] in the dense table, reset
//	                between probes by one epoch bump; or a pairTable slot
//	                past denseStateLimit, cleared on reset.
//
// Everything on the pop→touch→score path carries //mc:hotpath: mclint's
// hotalloc analyzer plus the -escapes compile prove the loop stays
// allocation-free statically, and TestFlatProbePathZeroAllocs pins it
// dynamically over the whole probe (index build excluded).

import (
	"strconv"

	"matchcatcher/internal/config"
	"matchcatcher/internal/telemetry"
)

// wire binds the probe to one config's run, whose instance ids are
// already in p.ids, and sizes the pooled buffers: top-k heap reset,
// pair-store choice and reset, and position/arena-table sizing. It runs
// before the seed absorb (seeds must warm the top-k heap before event
// seeding so the push-cap prune sees them). May allocate, but only on
// buffer growth — steady-state reuse through the pool allocates nothing.
func (p *flatProbe) wire(cor *Corpus, mask config.Mask, opt runOpts) {
	nA, nB := len(p.ids.a), len(p.ids.b)
	p.q = opt.q
	p.m = opt.m
	p.c = opt.c
	p.recsA, p.recsB, p.mask = cor.recsA, cor.recsB, mask
	p.rs = opt.stats
	p.top.k, p.top.items = opt.k, p.top.items[:0]
	p.cur = progCursor{block: opt.prog.counters()}
	p.done = opt.done
	p.mergeCh = opt.mergeCh
	p.span = opt.span
	p.nB = int64(nB)
	p.resetPairs(nA*nB, nA*nB > denseStateLimit)

	p.posA = grow(p.posA, nA)
	clear(p.posA)
	p.posB = grow(p.posB, nB)
	clear(p.posB)
	p.offA = grow(p.offA, p.ids.n)
	p.fillA = grow(p.fillA, p.ids.n)
	clear(p.fillA)
	p.offB = grow(p.offB, p.ids.n)
	p.fillB = grow(p.fillB, p.ids.n)
	clear(p.fillB)
	p.events.items = p.events.items[:0]
	p.touched = p.touched[:0]
	p.touchedKeys = p.touchedKeys[:0]
}

// pairIdx is pair (a, b)'s row-major index a·|B|+b.
//
//mc:hotpath
func (p *flatProbe) pairIdx(a, b int32) int64 {
	return int64(a)*p.nB + int64(b)
}

// pairOf inverts pairIdx.
//
//mc:hotpath
func (p *flatProbe) pairOf(idx int64) (a, b int32) {
	a = int32(idx / p.nB)
	return a, int32(idx - int64(a)*p.nB)
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

// seed is the index phase: one pass over each side counting instances
// per dense id (into the fill tables, converted to slab offsets below)
// and pushing each record's first prefix event, A ascending then B
// ascending. Returns the instance total for the progress tracker, and
// whether the run was cancelled (read every progressStride records; the
// slabs are then left unsized and the probe must not run).
func (p *flatProbe) seed() (instances int64, cancelled bool) {
	recs := 0
	for i := int32(0); i < int32(len(p.ids.a)); i++ {
		if recs++; recs&(progressStride-1) == 0 && p.cancelled() {
			return instances, true
		}
		for _, id := range p.ids.a[i] {
			p.fillA[id]++
		}
		instances += int64(len(p.ids.a[i]))
		p.push(0, i)
	}
	for i := int32(0); i < int32(len(p.ids.b)); i++ {
		if recs++; recs&(progressStride-1) == 0 && p.cancelled() {
			return instances, true
		}
		for _, id := range p.ids.b[i] {
			p.fillB[id]++
		}
		instances += int64(len(p.ids.b[i]))
		p.push(1, i)
	}
	p.slabA = grow(p.slabA, sumToOffsets(p.offA, p.fillA))
	p.slabB = grow(p.slabB, sumToOffsets(p.offB, p.fillB))
	return instances, false
}

// cancelled reports, without blocking, whether the run's done channel
// has closed.
//
//mc:hotpath
func (p *flatProbe) cancelled() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
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
		pos, l = p.posA[rec], len(p.ids.a[rec])
	} else {
		pos, l = p.posB[rec], len(p.ids.b[rec])
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
// positions (pa, pb) of the respective records. First touch runs the two
// strict pair filters, then the blocker-suppression check — cheapest
// test first: the filters are a few integer compares, the C check a map
// lookup, and a pair either one removes stays out of the top-k, so the
// order moves only which counter a filtered C pair lands in. q common
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
		if p.top.full() {
			lx, ly := len(p.ids.a[a]), len(p.ids.b[b])
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
		if p.c.Contains(int(a), int(b)) {
			*cell = pairPack(p.epoch, pairSuppressed)
			p.rs.n[cSuppressedPairs]++
			return
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

// score is pair (a, b)'s exact similarity under the probe's config: one
// sorted merge of the two records' token entries.
//
//mc:hotpath
func (p *flatProbe) score(a, b int32) float64 {
	ra, rb := &p.recsA[a], &p.recsB[b]
	lx, ly := ra.lenUnder(p.mask), rb.lenUnder(p.mask)
	if lx == 0 || ly == 0 {
		return 0
	}
	p.rs.n[cScratchScores]++
	return p.m.FromOverlap(overlapUnder(ra, rb, p.mask), lx, ly)
}

// absorb folds a parent config's top-k pairs into this run, rescoring
// each pair under this config: scores do not transfer across configs,
// since a child drops attributes and so changes both lengths and the
// overlap. Unseen C pairs are suppressed silently (no counter).
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
// stride checkpoint carries progress flushes, cancellation, and mid-run
// merge arrivals.
//
//mc:hotpath
func (p *flatProbe) probe() bool {
	steps := 0
	for p.events.Len() > 0 {
		if steps++; steps&(progressStride-1) == 0 {
			// Progress sampling rides the loop's existing stride
			// checkpoint: one delta flush per progressStride pops.
			p.cur.flush(p.rs, p.events.Len(), p.top.Len())
			if p.cancelled() {
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
			// instance total. One pass over the heap, once per probe.
			for _, dead := range p.events.items {
				if dead.side == 0 {
					p.rs.n[cProbesSkipped] += int64(len(p.ids.a[dead.rec]) - int(p.posA[dead.rec]))
				} else {
					p.rs.n[cProbesSkipped] += int64(len(p.ids.b[dead.rec]) - int(p.posB[dead.rec]))
				}
			}
			return false
		}
		p.events.pop()
		p.rs.n[cPrefixEvents]++
		if ev.side == 0 {
			pos := p.posA[ev.rec]
			inst := p.ids.a[ev.rec][pos]
			p.posA[ev.rec] = pos + 1
			off, n := p.offB[inst], p.fillB[inst]
			for _, pe := range p.slabB[off : off+n] {
				p.touch(ev.rec, pe.rec, pos, pe.pos)
			}
			p.slabA[p.offA[inst]+p.fillA[inst]] = postEntry{rec: ev.rec, pos: pos}
			p.fillA[inst]++
		} else {
			pos := p.posB[ev.rec]
			inst := p.ids.b[ev.rec][pos]
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

// flushBound caps the common instances of deferred pair (a, b), st of
// them counted. An instance is counted once both records have popped it,
// and both list their ids in one ascending order, so every uncounted
// common instance has an id >= min(nextA, nextB) — the two records' next
// unpopped ids — and therefore lies in the unpopped suffix of the side
// whose next id is smaller (the lagging side; either on a tie, the other
// side once one is exhausted).
//
//mc:hotpath
func (p *flatProbe) flushBound(a, b, st int32) int {
	pa, pb := p.posA[a], p.posB[b]
	lx, ly := len(p.ids.a[a]), len(p.ids.b[b])
	rest := lx - int(pa)
	if rb := ly - int(pb); rest == 0 || (rb > 0 && p.ids.b[b][pb] < p.ids.a[a][pa]) {
		rest = rb
	}
	return min(int(st)+rest, lx, ly)
}

// flushIdx is the exactness flush for pair idx: if it is still deferred
// (fewer than q common instances seen, exact score unknown), score it
// unless its flushBound falls strictly below the k-th score.
//
//mc:hotpath
func (p *flatProbe) flushIdx(idx int64) {
	v := *p.cell(idx)
	st := int32(pairState(v))
	if pairEpoch(v) != p.epoch || st <= 0 {
		return
	}
	a, b := p.pairOf(idx)
	p.rs.n[cDeferredPairs]++
	lx, ly := len(p.ids.a[a]), len(p.ids.b[b])
	if p.top.full() && p.m.FromOverlap(p.flushBound(a, b, st), lx, ly) < p.top.kthScore() {
		p.rs.n[cKillsFlushBound]++
		return
	}
	p.rs.n[cFlushedPairs]++
	p.top.offer(ScoredPair{A: a, B: b, Score: p.score(a, b)})
}

// finish is the exactness flush over every pair that ever reached a
// positive count, in touch order (first-positive-count order). Both
// stores record a pair at the same point of touch, so they visit the
// same sequence and produce the same counter stream; the k-th score
// rises as flushed pairs are admitted, so the order shapes the counters
// only — the list is order-independent by the total-order retention.
// Each pair is visited once, so its state needs no update. Returns true
// if the run was cancelled (read every progressStride visits).
//
//mc:hotpath
func (p *flatProbe) finish() bool {
	if p.hashed {
		for i, idx := range p.touchedKeys {
			if (i+1)&(progressStride-1) == 0 && p.cancelled() {
				return true
			}
			p.flushIdx(idx)
		}
		return false
	}
	for i, idx := range p.touched {
		if (i+1)&(progressStride-1) == 0 && p.cancelled() {
			return true
		}
		p.flushIdx(int64(idx))
	}
	return false
}

// join is one config's exact QJoin (Section 4.1) on the block's
// buffers: tokenize, seed absorb, index, probe loop, exactness flush.
// The block owns the instance ids and the top-k heap, so a warm join
// allocates only the list it returns, which is copied out of the heap;
// a cancelled run's list is partial.
func (p *flatProbe) join(cor *Corpus, mask config.Mask, opt runOpts) TopKList {
	rs, span := opt.stats, opt.span
	tokSpan := span.Child("ssjoin.tokenize")
	p.ids.tokenize(cor, mask)
	tokSpan.SetAttrInt("records", int64(len(cor.recsA)+len(cor.recsB)))
	tokSpan.SetAttrInt("instances", int64(len(p.ids.backing)))
	tokSpan.SetAttrInt("ids", int64(p.ids.n))
	tokSpan.End()

	opt.prog.configStarted()
	defer opt.prog.configDone()
	p.wire(cor, mask, opt)
	p.absorb(opt.seeds)

	idxSpan := span.Child("ssjoin.index")
	instances, cancelled := p.seed()
	if cancelled {
		idxSpan.Event("cancelled")
		idxSpan.End()
		p.cur.flush(rs, p.events.Len(), p.top.Len())
		return p.top.list(mask)
	}
	if pc := p.cur.block; pc != nil {
		pc.probesTotal.Add(instances)
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
	if p.probe() {
		probeSpan.Event("cancelled")
		probeSpan.End()
		p.cur.flush(rs, p.events.Len(), p.top.Len())
		return p.top.list(mask)
	}
	probeSpan.SetAttrInt("prefix_events", rs.n[cPrefixEvents])
	probeSpan.SetAttrInt("prune_kills", rs.pruneKills())
	probeSpan.End()

	// Drain any merge list that arrived after the loop ended.
	if opt.mergeCh != nil {
		select {
		case list := <-opt.mergeCh:
			p.absorb(list)
		default:
		}
	}

	topkSpan := span.Child("ssjoin.topk")
	if p.finish() {
		topkSpan.Event("cancelled")
	}
	topkSpan.SetAttrInt("deferred_pairs", rs.n[cDeferredPairs])
	topkSpan.SetAttrInt("flushed_pairs", rs.n[cFlushedPairs])
	topkSpan.End()
	// Terminal flush: publish the final counters and zero the live heap
	// gauge (the probe is done; residual dead events are not a live heap).
	p.cur.flush(rs, 0, p.top.Len())
	return p.top.list(mask)
}
