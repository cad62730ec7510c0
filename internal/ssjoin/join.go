package ssjoin

import (
	"strconv"
	"sync"
	"sync/atomic"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/telemetry"
)

// runOpts parameterizes one single-config join run.
type runOpts struct {
	k int
	q int // compute a pair's score once it has q common prefix tokens
	m simfunc.SetMeasure
	c *blocker.PairSet // blocker output: pairs to exclude (may be nil)
	// seeds are pre-scored pairs (scores already under THIS config,
	// already C-filtered) used to initialize the top-k list.
	seeds []ScoredPair
	// mergeCh optionally delivers a late parent top-k list (adjusted to
	// this config) while the join runs; drained periodically. The join is
	// exact (see joinShard), so whether and when the list arrives changes
	// only the work done, never the result.
	mergeCh <-chan []ScoredPair
	// cancel aborts the run when set (used by the q-selection race).
	cancel *atomic.Bool
	// stats collects this run's event counts. Always non-nil in real
	// runs; runJoin tolerates nil. With probe sharding the per-shard
	// counts are folded in deterministically after the pool joins.
	stats *runStats
	// span is this config join's trace span; runJoin opens tokenize /
	// index / probe / topk child spans under it (per shard when the probe
	// is sharded). Nil disables tracing (all the sub-span calls degrade
	// to no-ops).
	span *telemetry.TraceSpan
	// probeWorkers bounds the goroutines running probe shards (and the
	// parallel tokenize). <= 1 selects the serial single-shard path. The
	// result is bit-identical for every value; see DESIGN.md "Intra-join
	// parallelism & determinism".
	probeWorkers int
	// probeShards overrides the shard count (0 = one shard per probe
	// worker). Exposed for the metamorphic tests, which prove the shard
	// count is invisible in the output.
	probeShards int
	// prog is the run's live progress tracker; nil disables sampling
	// entirely (the probe loop's only residue is a nil check per stride).
	// The tracker is observe-only — it never feeds back into the join,
	// so attaching it cannot change any output bit.
	prog *Progress
	// ids is the instance-id buffer this run's tokenize fills; nil gets a
	// fresh one. A JoinAll worker passes its own buffer to every config
	// it runs, one after another; concurrent runs never share a buffer.
	ids *denseInstances
}

// shardView restricts which records seed probe events in one shard. The
// sharded side's records are dealt round-robin (rec mod shards); the
// other side participates fully in every shard, so each candidate pair
// belongs to exactly one shard — the invariant that makes the shard-heap
// merge a disjoint union. The zero view (shards == 0) owns everything.
type shardView struct {
	side   int8 // which side is sharded: 0 = A, 1 = B
	shard  int  // this shard's index
	shards int  // total shard count; <= 1 disables sharding
}

// runJoin executes QJoin (Section 4.1) for one config: an event heap pops
// the prefix extension with the highest score cap; each extension joins
// the new token instance against the opposite side's current prefixes via
// an inverted index; pairs are scored exactly once they accumulate q
// common instances; at termination every pending pair whose optimistic
// bound (counted instances plus the lagging record's unpopped suffix,
// see flatProbe.flushBound) reaches the k-th score is scored, in touch
// order — the flush that keeps q-deferral exact. Pairs present in the
// blocker output C are tracked but never emitted (Definition 2.2
// searches D = A×B − C); the strict pair filters run before that check,
// so a C pair they kill is counted as a kill, not a suppression.
//
// All pruning is strict (a bound must fall below the k-th retained score
// before anything is skipped), so the returned list is the exact top-k of
// D under the total order (score desc, idA asc, idB asc) — a pure
// function of (corpus, mask, k, C, measure). Seeds, mid-run merges, q,
// and the probe worker/shard counts change only how much work the join
// does, never its output; that invariance is what lets runJoin shard the
// probe side across probeWorkers goroutines (one bounded heap per shard,
// merged under the same total order) and still return bytes identical to
// the serial join.
func runJoin(cor *Corpus, mask config.Mask, opt runOpts) TopKList {
	// q only decides when a pair is scored, so clamping it to the range
	// the packed pair state can count cannot change the output.
	opt.q = min(max(opt.q, 1), maxPackedQ)
	if opt.stats == nil {
		opt.stats = &runStats{}
	}
	if opt.probeWorkers < 1 {
		opt.probeWorkers = 1
	}
	shards := opt.probeShards
	if shards == 0 {
		shards = opt.probeWorkers
	}
	if shards < 1 {
		shards = 1
	}
	nA, nB := len(cor.recsA), len(cor.recsB)
	// Shard the larger side: the unsharded side's prefix events replay in
	// every shard, so replicating the smaller side minimizes the
	// duplicated heap work. Pair touches, scoring, and the flush — the
	// join's real costs — partition with the sharded side.
	side := int8(0)
	sideLen := nA
	if nB > nA {
		side, sideLen = 1, nB
	}
	if shards > sideLen {
		shards = sideLen // empty shards would only replay the other side
	}
	if shards < 1 {
		shards = 1
	}

	// Dense instance ids are built once per config and shared read-only
	// by every shard.
	ids := opt.ids
	if ids == nil {
		ids = &denseInstances{}
	}
	tokSpan := opt.span.Child("ssjoin.tokenize")
	ids.tokenize(cor, mask, opt.probeWorkers)
	tokSpan.SetAttrInt("records", int64(nA+nB))
	tokSpan.SetAttrInt("instances", int64(len(ids.backing)))
	tokSpan.SetAttrInt("ids", int64(ids.n))
	tokSpan.End()

	opt.prog.configStarted()
	defer opt.prog.configDone()
	if shards <= 1 {
		top := joinShard(cor, mask, opt, shardView{}, ids,
			opt.stats, opt.seeds, opt.mergeCh, opt.span, opt.prog.slot(0))
		return top.list(mask)
	}
	return runJoinSharded(cor, mask, opt, side, shards, ids)
}

// runJoinSharded fans one config's probe out over a bounded worker pool:
// each shard runs the full exact join restricted to its slice of the
// sharded side (per-shard posting lists, per-shard top-k heap), and the
// shard heaps are merged under the same total-order tie-break the serial
// insert path uses. Because every shard is exact on its (disjoint) slice
// of the pair space, the merged list is the exact global top-k — bytes
// identical to the serial join for every worker and shard count.
func runJoinSharded(cor *Corpus, mask config.Mask, opt runOpts, side int8, shards int, ids *denseInstances) TopKList {
	rs := opt.stats
	seeds := opt.seeds
	// Fold an already-delivered parent list into the seeds. Later
	// arrivals are ignored: exactness makes the handoff invisible to the
	// result, so a missed merge costs only the list-reuse speedup.
	if opt.mergeCh != nil {
		select {
		case list := <-opt.mergeCh:
			seeds = append(append([]ScoredPair(nil), seeds...), list...)
		default:
		}
	}
	seedsFor := make([][]ScoredPair, shards)
	for _, p := range seeds {
		rec := p.A
		if side == 1 {
			rec = p.B
		}
		s := int(rec) % shards
		seedsFor[s] = append(seedsFor[s], p)
	}

	heaps := make([]*topkHeap, shards)
	shardStats := make([]runStats, shards)
	workers := opt.probeWorkers
	if workers > shards {
		workers = shards
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				srs := &shardStats[s]
				ssp := opt.span.Child("ssjoin.shard",
					telemetry.L("shard", strconv.Itoa(s)),
					telemetry.L("shards", strconv.Itoa(shards)))
				view := shardView{side: side, shard: s, shards: shards}
				heaps[s] = joinShard(cor, mask, opt, view, ids,
					srs, seedsFor[s], nil, ssp, opt.prog.slot(s))
				ssp.End()
			}
		}()
	}
	for s := 0; s < shards; s++ {
		jobs <- s
	}
	close(jobs)
	wg.Wait()

	// Fold shard counters in shard-index order — deterministic totals
	// regardless of which worker ran which shard when.
	for s := range shardStats {
		rs.fold(&shardStats[s])
	}
	rs.n[cProbeShards] += int64(shards)

	// Per-config shard-skew summary: work units are popped prefix
	// events, which partition with the sharded side and so expose any
	// imbalance the round-robin deal left. Deterministic for a fixed
	// shard count — the counts are fold-order-independent per shard.
	works := make([]int64, shards)
	for s := range shardStats {
		works[s] = shardStats[s].n[cPrefixEvents]
	}
	sk := skewOf(works)
	rs.shardWorkMin = sk.WorkMin
	rs.shardWorkMax = sk.WorkMax
	rs.shardWorkP50 = sk.WorkP50
	rs.shardImbalance = sk.ImbalanceRatio

	msp := opt.span.Child("ssjoin.merge")
	lists := make([][]ScoredPair, shards)
	merged := 0
	for s, h := range heaps {
		lists[s] = h.items
		merged += len(h.items)
		if slot := opt.prog.slot(s); slot != nil {
			slot.mergeOffers.Add(int64(len(h.items)))
		}
	}
	top := mergeTopK(opt.k, lists...)
	rs.n[cShardMergePairs] += int64(merged)
	msp.SetAttrInt("pairs", int64(merged))
	msp.SetAttrInt("shards", int64(shards))
	msp.End()
	return top.list(mask)
}

// mergeTopK merges per-shard top-k candidate lists into one bounded heap
// through the same total-order offer path serial inserts use, so the
// merged result never depends on shard order or arrival order. Callers
// guarantee a pair appears in at most one list (shards partition the pair
// space); FuzzMergeTopK checks the merge against serial insertion of the
// concatenated pairs, exact float ties included.
func mergeTopK(k int, lists ...[]ScoredPair) *topkHeap {
	top := newTopkHeap(k)
	for _, l := range lists {
		for _, p := range l {
			top.offer(p)
		}
	}
	return top
}
