package ssjoin

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/telemetry"
)

// Options tunes the joins.
type Options struct {
	// Ctx, when non-nil, cancels the run: once its done channel is
	// closed, every in-flight config join aborts at its next stride
	// checkpoint (index or row loop), JoinAll starts no further
	// config, and JoinAll/JoinOne return promptly. A cancelled run's
	// lists are partial garbage (a config never started keeps an empty
	// list) — callers must check Ctx.Err() before using the result
	// (core.New does). This is how a server threads request timeouts
	// into the join: the loops read the done channel once per stride,
	// never per pop.
	Ctx context.Context
	// K is the per-config list size (the paper's experiments use 1000).
	K int
	// Measure is the set similarity (default Jaccard, the paper's choice).
	Measure simfunc.SetMeasure
	// Workers bounds the number of configs processed concurrently
	// (default GOMAXPROCS). Every single-config join returns the exact
	// top-k of its config under the total order (score desc, idA, idB),
	// so neither Workers nor the list-reuse handoff (a child seeded from
	// its finished parent, or run cold) can change any output bit: runs
	// are bit-reproducible at every worker count.
	Workers int
	// DisableListReuse turns off the Section 4.2 list reuse (a child
	// config starting from its parent's top-k), for the §6.5 ablation.
	DisableListReuse bool
	// Metrics receives the executor's telemetry (counters and per-config
	// join latency). Nil selects telemetry.Default();
	// telemetry.Disabled() switches instrumentation off.
	Metrics *telemetry.Registry
	// Trace is the parent trace span the executor hangs its per-config
	// spans under (each config join opens an ssjoin.config span with
	// tokenize/index/probe/topk children). Nil disables tracing.
	Trace *telemetry.TraceSpan
	// Provenance records decision lineage (suppression by C, exact score,
	// rank) for its watched pairs under every config joined. Nil or an
	// empty watch-list costs nothing on the hot path: provenance is
	// derived after each config join finishes, never inside it.
	Provenance *telemetry.Provenance
	// Progress, when non-nil, receives live work counters the row loop
	// flushes every progressStride rows or posting entries; observers call
	// Progress.Snapshot from any goroutine for completion/ETA estimates
	// while the run is in flight. Observe-only: attaching it
	// never changes an output bit, and its overhead is bounded by the
	// overhead gate's JoinProgress pair (<5%, BENCH_overhead.json).
	// One Progress tracks one JoinOne/JoinAll call.
	Progress *Progress
}

func (o Options) withDefaults() Options {
	if o.K < 1 {
		o.K = 1000
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports how the joint executor behaved, for the ablation benches
// and run reports. It is a per-run view over the same counter stream that
// feeds the telemetry registry (every config join's runStats flushes into
// both), so JoinAll/JoinOne report through one mechanism; the telemetry
// side additionally carries the per-config latency histogram under the
// mc_ssjoin_* names.
//
// The field names predate the row-local kernel; DESIGN.md "Row-local
// join kernel" gives each its meaning there.
type Stats struct {
	ScratchScores   int64 // exact pair scores, each one merge of two token lists
	Rows            int64 // A rows the joins walked to their end
	PrefixEvents    int64 // A prefix instances probed (one posting-list walk each)
	PruneKills      int64 // prefix cuts by the score cap (push cap + loop break)
	DeferredPairs   int64 // row-end candidates: pairs a row counted and left live
	FlushedPairs    int64 // row-end candidates the bound could not drop, scored exactly
	SuppressedPairs int64 // C pairs skipped at first touch (a C pair a strict filter kills counts as a kill)
	// Prune-tier split of PruneKills: rows whose prefix the cap cut
	// short, posting-list walks stopped at an entry below the k-th score,
	// and row-end candidates the bound dropped.
	PruneKillsPushCap    int64
	PruneKillsLoopBreak  int64
	PruneKillsFlushBound int64
	// ShallowBlocker-style strict pair filters (first-touch kills; see
	// the "Row-local join kernel" DESIGN.md section). Like
	// PruneKillsFlushBound these count pairs, not prefix cuts, so they
	// are not part of the PruneKills grand total.
	PruneKillsLengthFilter int64
	PruneKillsPrefixPos    int64
	// Deprecated: always zero. The row-local kernel scores every
	// candidate at its row's end; there is no q.
	QUsed int
	// Deprecated: always zero. Score reuse (the Section 4.2 overlap
	// database they counted) is deleted; every score is a ScratchScore.
	ReusedScores, ReuseMisses int64
}

// JoinResult holds one top-k list per config, in the tree's breadth-first
// order, plus executor statistics.
type JoinResult struct {
	Lists []TopKList
	Stats Stats
}

// joinRun is one JoinOne or JoinAll call: the resolved options, the
// registry sink and the cancellation channel every config it joins
// shares.
type joinRun struct {
	cor  *Corpus
	c    *blocker.PairSet
	opt  Options
	snk  *sink
	done <-chan struct{} // Ctx's done channel; nil (never ready) without a Ctx
}

// newJoinRun resolves opt's defaults, records C's suppression lineage and
// opens the call's progress run over configs configs.
func newJoinRun(cor *Corpus, c *blocker.PairSet, opt Options, configs int) *joinRun {
	opt = opt.withDefaults()
	r := &joinRun{cor: cor, c: c, opt: opt, snk: newSink(telemetry.Or(opt.Metrics))}
	if opt.Ctx != nil {
		r.done = opt.Ctx.Done()
	}
	recordSuppressionProvenance(opt.Provenance, c)
	opt.Progress.beginRun(configs)
	return r
}

// cancelled reports whether the run's Ctx is done.
func (r *joinRun) cancelled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// end marks the call's progress run finished, and cancelled if Ctx is
// done.
func (r *joinRun) end() { r.opt.Progress.finishRun(r.cancelled()) }

// join runs one config under its ssjoin.config span, then flushes the
// config's counts into the registry and its lineage into provenance. ro
// carries the caller's per-config seeds; reuse, when set, is the span's
// list_reuse attr.
func (r *joinRun) join(mask config.Mask, ro runOpts, reuse string) (TopKList, *runStats) {
	rs := &runStats{}
	csp := r.opt.Trace.Child("ssjoin.config",
		telemetry.L("config", r.cor.Res.String(mask)))
	if reuse != "" {
		csp.SetAttr("list_reuse", reuse)
	}
	ro.k, ro.m, ro.c = r.opt.K, r.opt.Measure, r.c
	ro.done, ro.stats, ro.span, ro.prog = r.done, rs, csp, r.opt.Progress
	start := time.Now()
	list := runJoin(r.cor, mask, ro)
	csp.SetAttrInt("scratch_scores", rs.n[cScratchScores])
	csp.End()
	r.snk.record(rs, time.Since(start))
	recordJoinProvenance(r.opt.Provenance, r.cor, mask, r.c, list, r.opt.Measure)
	return list, rs
}

// JoinOne runs one config's top-k join with no cross-config reuse; it is
// the per-config unit the joint executor schedules, and doubles as the
// individual-execution baseline of the §6.5 ablation and the single-config
// baseline of [29] when given the root config.
func JoinOne(cor *Corpus, mask config.Mask, c *blocker.PairSet, opt Options) TopKList {
	r := newJoinRun(cor, c, opt, 1)
	defer r.end()
	list, _ := r.join(mask, runOpts{}, "")
	return list
}

// JoinAll processes every config of the tree jointly (Section 4.2) on
// min(Workers, configs) workers in breadth-first order. A child whose
// parent has finished when it starts is seeded with the parent's list
// (list_reuse=seed); one whose parent is still running runs cold
// (list_reuse=miss). Scores are not reused: each is one exact merge of
// two token lists (EXPERIMENTS.md §6.5 item 3).
// Once Ctx is done a worker starts no further config; those keep an
// empty list.
func JoinAll(cor *Corpus, c *blocker.PairSet, opt Options) *JoinResult {
	nodes := cor.Res.Nodes()
	r := newJoinRun(cor, c, opt, len(nodes))
	defer r.end()
	opt = r.opt
	res := &JoinResult{}

	idxOf := make(map[*config.Node]int, len(nodes))
	for i, n := range nodes {
		idxOf[n] = i
	}
	lists := make([]TopKList, len(nodes))
	// Per-node runStats survive the pool so Stats is folded plainly and
	// deterministically (node order) after the workers join.
	nodeStats := make([]*runStats, len(nodes))
	finished := make([]atomic.Bool, len(nodes))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(opt.Workers, len(nodes)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if r.cancelled() {
					continue
				}
				n := nodes[i]
				ro, reuse := runOpts{}, ""
				if n.Parent != nil && !opt.DisableListReuse {
					reuse = "miss"
					if pi := idxOf[n.Parent]; finished[pi].Load() {
						ro.seeds, reuse = lists[pi].Pairs, "seed"
					}
				}
				lists[i], nodeStats[i] = r.join(n.Mask, ro, reuse)
				finished[i].Store(true)
			}
		}()
	}
	for i := range nodes {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// Stats folds after the pool joins: the counts are order-free sums.
	for _, rs := range nodeStats {
		if rs != nil {
			res.Stats.add(rs)
		}
	}
	res.Lists = lists
	return res
}

// BruteForce computes a config's exact top-k list by scoring every pair
// not in C — the reference implementation the property tests compare
// the row-local kernel against, and a usable fallback for tiny tables.
func BruteForce(cor *Corpus, mask config.Mask, c *blocker.PairSet, k int, m simfunc.SetMeasure) TopKList {
	top := newTopkHeap(k)
	for a := range cor.NumA() {
		ra := cor.a.rec(a)
		lx := ra.lenUnder(mask)
		if lx == 0 {
			continue
		}
		for b := range cor.NumB() {
			if c.Contains(a, b) {
				continue
			}
			rb := cor.b.rec(b)
			ly := rb.lenUnder(mask)
			if ly == 0 {
				continue
			}
			o := overlapUnder(ra, rb, mask)
			top.offer(ScoredPair{A: int32(a), B: int32(b), Score: m.FromOverlap(o, lx, ly)})
		}
	}
	return top.list(mask)
}
