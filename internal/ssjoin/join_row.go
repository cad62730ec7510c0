package ssjoin

// The row-local prefix-filter join kernel (DESIGN.md "Row-local join
// kernel"), of the AllPairs/PPJoin family: absorb the seeds, index B's
// prefixes once, then walk A's records in id order. Each A record (a
// row) probes its prefix instances against B's posting lists and counts
// common instances per B record in one |B|-sized row array; at the row's
// end each candidate is bounded, and the survivors are scored exactly
// and offered to the top-k heap. The ShallowBlocker-style length and
// positional prefix filters run at a pair's first touch, before the C
// check.
//
// Everything on the row path carries //mc:hotpath: mclint's hotalloc
// analyzer plus the -escapes compile prove the loop stays
// allocation-free statically, and TestFlatProbePathZeroAllocs pins it
// dynamically over the whole join after tokenize.

import (
	"cmp"
	"slices"

	"matchcatcher/internal/config"
)

// wire binds the block to one config's join, whose instance ids are
// already in p.ids, and resets every per-join buffer it reads — a pooled
// block may hold anything (TestPoolReusePoisonInvisible). May allocate,
// but only on buffer growth.
func (p *rowProbe) wire(cor *Corpus, mask config.Mask, opt runOpts) {
	p.m, p.c = opt.m, opt.c
	p.rs = opt.stats
	p.top.k, p.top.items = opt.k, p.top.items[:0]
	p.cur = progCursor{block: opt.prog.counters()}
	p.done, p.span = opt.done, opt.span

	nB := len(p.ids.b)
	p.row = grow(p.row, nB)
	clear(p.row)
	// A row appends each b at most once, so cands never outgrows nB.
	p.cands = grow(p.cands, nB)[:0]
	p.marks, p.markAt = p.marks[:0], 0
	maxLen := 0
	for _, l := range p.ids.b {
		maxLen = max(maxLen, len(l))
	}
	p.prefEnd = grow(p.prefEnd, maxLen+1)
	p.prefGen = grow(p.prefGen, maxLen+1)
	for l := range p.prefEnd {
		p.prefEnd[l], p.prefGen[l] = int32(l), 0
	}
	p.t, p.gen = 0, 0
	p.steps, p.nextCheck = 0, progressStride
}

// raise moves the probe threshold up to the current k-th score. Rows
// call it at their start; within a row the threshold stays put.
func (p *rowProbe) raise() {
	if t := p.top.kthScore(); t > p.t {
		p.t = t
		p.gen++
	}
}

// visible returns how many leading positions of a length-l B record
// have a cap of at least p.t: the prefix the row's posting walks see.
// Caps fall with the position and p.t only rises, so the cached end for
// l only moves down, one ExtendCap per step, amortized over the join.
//
//mc:hotpath
func (p *rowProbe) visible(l int) int {
	if p.prefGen[l] != p.gen {
		e := p.prefEnd[l]
		for e > 0 && p.m.ExtendCap(int(e)-1, l) < p.t {
			e--
		}
		p.prefEnd[l], p.prefGen[l] = e, p.gen
	}
	return int(p.prefEnd[l])
}

// cancelled reports, without blocking, whether the join's done channel
// has closed.
//
//mc:hotpath
func (p *rowProbe) cancelled() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// byPair orders pairs by (A, B).
func byPair(x, y ScoredPair) int {
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

// sortByCap sorts one posting list, filled in b order, by cap
// descending. The sort is stable, so ties stay in b order. Most lists
// are short, and an inline insertion sort handles those.
func sortByCap(list []postEntry) {
	if len(list) > 32 {
		slices.SortStableFunc(list, func(x, y postEntry) int { return cmp.Compare(y.cap, x.cap) })
		return
	}
	for i := 1; i < len(list); i++ {
		e, j := list[i], i
		for ; j > 0 && e.cap > list[j-1].cap; j-- {
			list[j] = list[j-1]
		}
		list[j] = e
	}
}

// absorb folds the seeds, a parent config's finished top-k pairs, into
// this join before the index is built. Each pair is rescored under this
// config — a child drops attributes, so both lengths and the overlap
// change — and offered to the heap. Pairs in C are dropped. The rest are
// marked for their rows, so no row offers them again; a seed list is a
// top-k list, which holds no pair twice.
func (p *rowProbe) absorb(list []ScoredPair) {
	for _, pr := range list {
		if !p.c.Contains(int(pr.A), int(pr.B)) {
			sp := ScoredPair{A: pr.A, B: pr.B, Score: p.score(pr.A, pr.B)}
			p.top.offer(sp)
			p.marks = append(p.marks, sp)
		}
	}
	slices.SortFunc(p.marks, byPair)
}

// index builds B's posting lists over the positions whose cap reaches
// the threshold the seeds set (t0): a count pass, a fill pass in b
// order, then a stable sort of each list by cap. Later rows probe at a
// threshold >= t0, so no entry they need is missing. Returns true if
// the join was cancelled (read every progressStride records).
func (p *rowProbe) index() bool {
	n := p.ids.n
	p.off = grow(p.off, n+1)
	clear(p.off)
	for b, l := range p.ids.b {
		if (b+1)&(progressStride-1) == 0 && p.cancelled() {
			return true
		}
		for _, id := range l[:p.visible(len(l))] {
			p.off[id+1]++
		}
	}
	for id := 1; id <= n; id++ {
		p.off[id] += p.off[id-1]
	}
	p.post = grow(p.post, int(p.off[n]))
	// Fill with off[id] as id's cursor; afterwards off[id] is id's end,
	// so shifting by one restores the starts.
	for b, l := range p.ids.b {
		ly := len(l)
		for pos, id := range l[:p.visible(ly)] {
			p.post[p.off[id]] = postEntry{cap: p.m.ExtendCap(pos, ly), b: int32(b), pos: int32(pos)}
			p.off[id]++
		}
	}
	copy(p.off[1:], p.off[:n])
	p.off[0] = 0
	for id := 0; id < n; id++ {
		sortByCap(p.post[p.off[id]:p.off[id+1]])
	}
	return false
}

// checkpoint runs once per progressStride rows or posting entries: it
// publishes progress and reads cancellation. Returns true if the join
// was cancelled.
//
//mc:hotpath
func (p *rowProbe) checkpoint() bool {
	p.nextCheck = p.steps + progressStride
	p.cur.flush(p.rs, len(p.cands), p.top.Len())
	return p.cancelled()
}

// probe walks A's rows in id order (or until cancelled — returns true).
// Before a row runs it raises the threshold to the k-th score and marks
// the row's absorbed seeds.
//
//mc:hotpath
func (p *rowProbe) probe() bool {
	for a := int32(0); a < int32(len(p.ids.a)); a++ {
		if p.steps++; p.steps >= p.nextCheck && p.checkpoint() {
			return true
		}
		p.raise()
		for ; p.markAt < len(p.marks) && p.marks[p.markAt].A == a; p.markAt++ {
			b := p.marks[p.markAt].B
			p.cands = append(p.cands, b)
			p.row[b] = rowDead
		}
		pa, cancelled := p.runRow(a)
		if cancelled {
			return true
		}
		p.endRow(a, pa)
		p.rs.n[cRows]++
	}
	return false
}

// runRow probes row a's prefix: every position whose cap reaches the
// threshold, each walking its posting list down to the first entry
// below it. Returns the probed prefix length, and whether the join was
// cancelled at a checkpoint inside the row.
//
//mc:hotpath
func (p *rowProbe) runRow(a int32) (pa int, cancelled bool) {
	la := p.ids.a[a]
	lx := len(la)
	for ; pa < lx; pa++ {
		if p.m.ExtendCap(pa, lx) < p.t {
			p.rs.n[cKillsPushCap]++
			break
		}
		id := la[pa]
		walked := 0
		for _, e := range p.post[p.off[id]:p.off[id+1]] {
			if e.cap < p.t {
				p.rs.n[cKillsLoopBreak]++
				break
			}
			walked++
			p.touch(a, e.b, int32(pa), e.pos, lx)
		}
		p.rs.n[cPrefixEvents]++
		if p.steps += walked; p.steps >= p.nextCheck && p.checkpoint() {
			return pa, true
		}
	}
	return pa, false
}

// touch counts one common instance of pair (a, b), met at prefix
// positions (pa, pb) of the two records. First touch runs the two strict
// pair filters, then the blocker-suppression check — cheapest test
// first: the filters are a few compares, the C check a search, and a
// pair either one removes stays out of the top-k, so the order moves
// only which counter a filtered C pair lands in.
//
// Filter soundness (why killing here cannot change the output): a pair
// that ends in the top-k scores at least the final k-th score, so at
// least p.t; each record's cap at the pair's first common instance
// bounds its score, so both caps there are >= p.t and the row reaches
// that instance — positions ascend with ids in both records, so the
// first touch is at the first common instance. Every other common
// instance then lies strictly after pa in a and after pb in b:
//
//	overlap(a, b) <= 1 + min(lx-pa-1, ly-pb-1)   (positional prefix)
//	overlap(a, b) <= min(lx, ly)                 (length, trivially)
//
// and FromOverlap is monotone in the overlap. Both prunes are strict
// (< p.t, the k-th score while the row probes): a killed pair scores
// strictly below every later k-th score and could never be retained,
// not even via the equal-score id tie-break. With the heap not full p.t
// is 0 and neither filter can fire.
//
//mc:hotpath
func (p *rowProbe) touch(a, b, pa, pb int32, lx int) {
	v := p.row[b]
	if v < 0 {
		return
	}
	if v == 0 {
		p.cands = append(p.cands, b)
		ly := len(p.ids.b[b])
		mo := min(lx, ly)
		if p.m.FromOverlap(mo, lx, ly) < p.t {
			p.row[b] = rowDead
			p.rs.n[cKillsLengthFilter]++
			if filterKillHook != nil {
				filterKillHook(a, b, tierLengthFilter)
			}
			return
		}
		if rem := 1 + min(lx-int(pa)-1, ly-int(pb)-1); rem < mo && p.m.FromOverlap(rem, lx, ly) < p.t {
			p.row[b] = rowDead
			p.rs.n[cKillsPrefixPos]++
			if filterKillHook != nil {
				filterKillHook(a, b, tierPrefixPos)
			}
			return
		}
		if p.c.Contains(int(a), int(b)) {
			p.row[b] = rowDead
			p.rs.n[cSuppressedPairs]++
			return
		}
	}
	p.row[b] = v + 1
}

// lagging returns, for candidate (a, b) at the end of a's row, the
// lagging side's unprobed suffix and the other record. The row counted
// every common instance in both probed prefixes: a's first pa
// positions and b's first visible(|b|). Both records list their ids in
// one ascending order, so the uncounted common instances are exactly
// the common ids >= min(nextA, nextB), the ids just past the two
// prefixes. The lagging side is the one whose next id is that minimum
// (either on a tie, the other side once one prefix is the whole
// record), so its suffix holds every uncounted common instance:
// overlap <= c + len(lag), the row-end bound.
//
//mc:hotpath
func (p *rowProbe) lagging(a, b int32, pa int) (lag, other []int32) {
	la, lb := p.ids.a[a], p.ids.b[b]
	pb := p.visible(len(lb))
	if pa == len(la) || (pb < len(lb) && lb[pb] < la[pa]) {
		return lb[pb:], la
	}
	return la[pa:], lb
}

// overlap completes candidate (a, b)'s exact overlap from its c counted
// instances: the uncounted ones are the common ids of lag and of the
// other record's ids >= lag[0].
//
//mc:hotpath
func overlap(c int32, lag, other []int32) int {
	o := int(c)
	if len(lag) == 0 {
		return o
	}
	i, _ := slices.BinarySearch(other, lag[0])
	return o + commonIDs(lag, other[i:])
}

// commonIDs counts the ids two ascending id lists share.
//
//mc:hotpath
func commonIDs(x, y []int32) int {
	o, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			o++
			i++
			j++
		}
	}
	return o
}

// endRow settles row a's candidates in touch order: a candidate whose
// bound (c + the lagging suffix, see lagging) falls strictly below the
// k-th score is dropped, the rest are scored exactly and offered. Each
// visited entry is zeroed, which leaves the row array clean for the next
// row.
//
//mc:hotpath
func (p *rowProbe) endRow(a int32, pa int) {
	lx := len(p.ids.a[a])
	for _, b := range p.cands {
		c := p.row[b]
		p.row[b] = 0
		if c <= 0 {
			continue
		}
		p.rs.n[cDeferredPairs]++
		ly := len(p.ids.b[b])
		lag, other := p.lagging(a, b, pa)
		if p.top.full() && p.m.FromOverlap(min(int(c)+len(lag), lx, ly), lx, ly) < p.top.kthScore() {
			p.rs.n[cKillsFlushBound]++
			continue
		}
		p.rs.n[cFlushedPairs]++
		p.rs.n[cScratchScores]++
		p.top.offer(ScoredPair{A: a, B: b, Score: p.m.FromOverlap(overlap(c, lag, other), lx, ly)})
	}
	p.cands = p.cands[:0]
}

// score is pair (a, b)'s exact similarity under the join's config: one
// merge of the two records' instance ids.
//
//mc:hotpath
func (p *rowProbe) score(a, b int32) float64 {
	la, lb := p.ids.a[a], p.ids.b[b]
	if len(la) == 0 || len(lb) == 0 {
		return 0
	}
	p.rs.n[cScratchScores]++
	return p.m.FromOverlap(commonIDs(la, lb), len(la), len(lb))
}

// join is one config's exact top-k join on the block's buffers:
// tokenize, seed absorb, index, row loop. The block owns the instance
// ids and the top-k heap, so a warm join allocates only the list it
// returns, which is copied out of the heap; a cancelled join's list is
// partial.
func (p *rowProbe) join(cor *Corpus, mask config.Mask, opt runOpts) TopKList {
	rs, span := opt.stats, opt.span
	tokSpan := span.Child("ssjoin.tokenize")
	p.ids.tokenize(cor, mask)
	tokSpan.SetAttrInt("records", int64(cor.NumA()+cor.NumB()))
	tokSpan.SetAttrInt("instances", int64(len(p.ids.backing)))
	tokSpan.SetAttrInt("ids", int64(p.ids.n))
	tokSpan.End()

	opt.prog.configStarted()
	defer opt.prog.configDone()
	p.wire(cor, mask, opt)
	p.absorb(opt.seeds)
	p.raise()

	idxSpan := span.Child("ssjoin.index")
	if p.index() {
		idxSpan.Event("cancelled")
		idxSpan.End()
		p.cur.flush(rs, 0, p.top.Len())
		return p.top.list(mask)
	}
	if pc := p.cur.block; pc != nil {
		pc.probesTotal.Add(int64(len(p.ids.a)))
	}
	idxSpan.SetAttrInt("postings", int64(len(p.post)))
	idxSpan.End()

	probeSpan := span.Child("ssjoin.probe")
	cancelled := p.probe()
	if cancelled {
		probeSpan.Event("cancelled")
	}
	probeSpan.SetAttrInt("rows", rs.n[cRows])
	probeSpan.SetAttrInt("prefix_events", rs.n[cPrefixEvents])
	probeSpan.SetAttrInt("candidates", rs.n[cDeferredPairs])
	probeSpan.SetAttrInt("scored", rs.n[cFlushedPairs])
	if len(p.marks) > 0 {
		probeSpan.SetAttrInt("absorbed", int64(len(p.marks)))
	}
	probeSpan.End()
	// Terminal flush: publish the final counters and zero the live row
	// gauge.
	p.cur.flush(rs, 0, p.top.Len())

	topkSpan := span.Child("ssjoin.topk")
	list := p.top.list(mask)
	topkSpan.SetAttrInt("pairs", int64(len(list.Pairs)))
	topkSpan.End()
	return list
}
