package ssjoin

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/telemetry"
)

// AutoQ requests the empirical q selection of Section 4.1: QJoin runs for
// q = 1..4 concurrently at k = 50, and the first run to finish decides q.
const AutoQ = -1

// Options tunes the joins.
type Options struct {
	// Ctx, when non-nil, cancels the run: once the context is done every
	// in-flight probe loop aborts at its next cancellation check and
	// JoinAll/JoinOne return promptly. A cancelled run's lists are
	// partial garbage — callers must check Ctx.Err() before using the
	// result (core.New does). This is how a server threads request
	// timeouts into the join without polluting the exact hot path: the
	// cancellation flag is the same atomic the q-selection race uses.
	Ctx context.Context
	// K is the per-config list size (the paper's experiments use 1000).
	K int
	// Measure is the set similarity (default Jaccard, the paper's choice).
	Measure simfunc.SetMeasure
	// Q is the common-token count that triggers exact scoring. 0 selects
	// the default (2); AutoQ runs the empirical selection race; 1
	// reproduces the TopKJoin baseline's eager scoring.
	Q int
	// Workers bounds the number of configs processed concurrently
	// (default GOMAXPROCS). Every single-config join returns the exact
	// top-k of its config under the total order (score desc, idA, idB),
	// so neither Workers nor the list-reuse handoff (seed vs. mid-run
	// merge) can change any output bit: runs are bit-reproducible at
	// every worker count.
	Workers int
	// ProbeWorkers shards the inside of each single-config join across a
	// bounded worker pool (per-shard posting lists and top-k heaps,
	// merged under the same total order). Default 1 (serial probe) —
	// cross-config Workers already saturate cores on full-tree joins;
	// raise ProbeWorkers to cut the latency of a single config's join
	// (the interactive loop's critical path). The output is bit-identical
	// to the serial join for every value; see DESIGN.md "Intra-join
	// parallelism & determinism".
	ProbeWorkers int
	// ReuseMinAvgTokens gates overlap reuse: reuse only pays off for long
	// tuples, so it triggers only when the average tuple length is at
	// least this many tokens (default 20, the paper's t).
	ReuseMinAvgTokens float64
	// DisableScoreReuse and DisableListReuse turn off the two Section 4.2
	// reuse mechanisms (for the §6.5 joint-vs-individual ablation).
	DisableScoreReuse bool
	DisableListReuse  bool
	// Metrics receives the executor's telemetry (counters, per-config
	// join latency, q-race outcome). Nil selects telemetry.Default();
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
	// Progress, when non-nil, receives live per-shard work counters the
	// probe loops flush every progressStride pops; observers call
	// Progress.Snapshot from any goroutine for completion/ETA/skew
	// estimates while the run is in flight. Observe-only: attaching it
	// never changes an output bit, and its overhead is bounded by the
	// progress-overhead CI gate (<5%, BENCH_progress_overhead.json).
	// One Progress tracks one JoinOne/JoinAll call; the q-selection
	// race's throwaway joins are never tracked.
	Progress *Progress
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 1000
	}
	if o.Q == 0 {
		o.Q = 2
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ProbeWorkers < 1 {
		o.ProbeWorkers = 1
	}
	if o.ReuseMinAvgTokens == 0 {
		o.ReuseMinAvgTokens = 20
	}
	return o
}

// Stats reports how the joint executor behaved, for the ablation benches
// and run reports. It is a per-run view over the same counter stream that
// feeds the telemetry registry (every config join's runStats flushes into
// both), so JoinAll/JoinOne report through one mechanism; the telemetry
// side additionally carries the per-config latency histogram and the
// q-race outcome under the mc_ssjoin_* names.
type Stats struct {
	ScratchScores   int64 // pair scores computed by merging token lists
	ReusedScores    int64 // pair scores answered by a parent's overlap DB (H_γ hits)
	ReuseMisses     int64 // scratch scores taken while a parent H_γ existed
	PrefixEvents    int64 // prefix-extension events processed
	PruneKills      int64 // extensions pruned by the score-cap bound (push cap + loop break)
	DeferredPairs   int64 // pairs still below q common instances at flush time
	FlushedPairs    int64 // deferred pairs the exactness flush had to score
	SuppressedPairs int64 // pairs skipped because they are in C
	ProbeShards     int64 // probe shards executed across configs (0 = serial probes)
	ShardMergePairs int64 // shard-heap pairs offered to the top-k merges
	// Prune-tier split of PruneKills: push-cap kills at event push,
	// event-loop breaks, and flush-bound skips of deferred pairs.
	PruneKillsPushCap    int64
	PruneKillsLoopBreak  int64
	PruneKillsFlushBound int64
	// ShallowBlocker-style strict pair filters (first-touch kills; see
	// the "Flat-arena join kernel" DESIGN.md section). Like
	// PruneKillsFlushBound these count pairs, not prefix extensions, so
	// they are not part of the PruneKills grand total.
	PruneKillsLengthFilter int64
	PruneKillsPrefixPos    int64
	// SkippedInstances counts token instances pruning wrote off unpopped
	// (the complement of PrefixEvents in the progress accounting).
	SkippedInstances int64
	// Shard-skew summary of the worst-imbalance sharded config: per-shard
	// probe work (popped prefix events) min/max/p50 and the max/mean
	// ratio. Zero when every probe ran serially. Deterministic for a
	// fixed Workers × ProbeWorkers, like ProbeShards above.
	ShardWorkMin   int64
	ShardWorkMax   int64
	ShardWorkP50   int64
	ShardImbalance float64
	QUsed          int  // the q QJoin ran with
	ReuseActive    bool // whether the avg-length gate enabled reuse
}

// JoinResult holds one top-k list per config, in the tree's breadth-first
// order, plus executor statistics.
type JoinResult struct {
	Lists []TopKList
	Stats Stats
}

// hdb is one config's overlap database H_γ (Section 4.2): pair key -> the
// attribute-bitmask pairs of the pair's common tokens. Each writer config
// owns its own database; writes are insert-only and reads may race with
// writes (a miss merely falls back to a from-scratch score), which the
// paper handles with an atomic hashmap and we handle with a mutex.
type hdb struct {
	mu sync.RWMutex
	m  map[int64][]maskPair
}

// hdbMaxEntries bounds each overlap database. Reuse is best-effort — a
// miss just means the child scores from scratch — so capping keeps memory
// flat on workloads that score tens of millions of pairs (the paper's W-A)
// while still answering the hot pairs that dominate child joins.
const hdbMaxEntries = 2_000_000

func newHDB() *hdb { return &hdb{m: make(map[int64][]maskPair)} }

func (h *hdb) get(key int64) ([]maskPair, bool) {
	h.mu.RLock()
	v, ok := h.m[key]
	h.mu.RUnlock()
	return v, ok
}

func (h *hdb) put(key int64, v []maskPair) {
	h.mu.Lock()
	if _, dup := h.m[key]; !dup && len(h.m) < hdbMaxEntries {
		h.m[key] = v
	}
	h.mu.Unlock()
}

// makeScorer builds the scorer factory for one config: consult the
// parent's overlap DB first, fall back to a token-list merge, and record
// common token masks into the config's own DB when it has children of its
// own. runJoin instantiates one scorer per probe shard, each bound to
// that shard's private runStats, so the increments stay plain adds; the
// overlap databases behind the scorer are internally synchronized.
func makeScorer(cor *Corpus, mask config.Mask, parentH, ownH *hdb, m simfunc.SetMeasure) scorerFactory {
	return func(rs *runStats) scorer {
		return makeShardScorer(cor, mask, parentH, ownH, m, rs)
	}
}

// makeShardScorer is one shard's scorer, bound to its runStats block.
func makeShardScorer(cor *Corpus, mask config.Mask, parentH, ownH *hdb, m simfunc.SetMeasure, rs *runStats) scorer {
	return func(a, b int32) float64 {
		ra, rb := &cor.recsA[a], &cor.recsB[b]
		lx, ly := ra.lenUnder(mask), rb.lenUnder(mask)
		if lx == 0 || ly == 0 {
			return 0
		}
		key := pairKey(a, b)
		if parentH != nil {
			if mp, ok := parentH.get(key); ok {
				o := 0
				for _, p := range mp {
					o += p.overlapUnder(mask)
				}
				if ownH != nil {
					ownH.put(key, mp)
				}
				rs.n[cReusedScores]++
				return m.FromOverlap(o, lx, ly)
			}
			rs.n[cReuseMisses]++
		}
		o, mp := overlapUnder(ra, rb, mask, ownH != nil)
		if ownH != nil {
			ownH.put(key, mp)
		}
		rs.n[cScratchScores]++
		return m.FromOverlap(o, lx, ly)
	}
}

// watchCancel bridges a context into the join's atomic cancellation
// flag. It returns the flag (nil when ctx is nil: never cancelled) and
// a release func that must be called once the run is over to free the
// watcher goroutine.
func watchCancel(ctx context.Context) (*atomic.Bool, func()) {
	if ctx == nil {
		return nil, func() {}
	}
	flag := &atomic.Bool{}
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			flag.Store(true)
		case <-stop:
		}
	}()
	return flag, func() { close(stop) }
}

// JoinOne runs QJoin on a single config with no cross-config reuse; it is
// the per-config unit the joint executor schedules, and doubles as the
// individual-execution baseline of the §6.5 ablation and the single-config
// baseline of [29] when given the root config.
func JoinOne(cor *Corpus, mask config.Mask, c *blocker.PairSet, opt Options) TopKList {
	opt = opt.withDefaults()
	snk := newSink(telemetry.Or(opt.Metrics))
	if opt.Q == AutoQ {
		opt.Q = SelectQ(cor, mask, c, opt)
		snk.recordQ(opt.Q)
	}
	recordSuppressionProvenance(opt.Provenance, c)
	cancel, release := watchCancel(opt.Ctx)
	defer release()
	opt.Progress.beginRun(1)
	defer func() {
		opt.Progress.finishRun(cancel != nil && cancel.Load())
	}()
	rs := &runStats{}
	csp := opt.Trace.Child("ssjoin.config",
		telemetry.L("config", cor.Res.String(mask)),
		telemetry.L("q", strconv.Itoa(opt.Q)))
	start := time.Now()
	list := runJoin(cor, mask, runOpts{
		k:            opt.K,
		q:            opt.Q,
		m:            opt.Measure,
		c:            c,
		score:        makeScorer(cor, mask, nil, nil, opt.Measure),
		cancel:       cancel,
		stats:        rs,
		span:         csp,
		probeWorkers: opt.ProbeWorkers,
		prog:         opt.Progress,
	})
	csp.End()
	snk.record(rs, time.Since(start))
	recordJoinProvenance(opt.Provenance, cor, mask, c, list, opt.Measure)
	return list
}

// SelectQ implements the empirical q selection: QJoin runs for q = 1..4
// concurrently with k = 50; whichever finishes first decides q (the paper
// then keeps that run going; we rerun at full k, which costs one small
// extra join and keeps the scheduler simple).
func SelectQ(cor *Corpus, mask config.Mask, c *blocker.PairSet, opt Options) int {
	opt = opt.withDefaults()
	var cancel atomic.Bool
	var once sync.Once
	winner := 2
	var wg sync.WaitGroup
	for q := 1; q <= 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			// The race's joins are throwaway measurements at k = 50; their
			// runStats stay local so they do not pollute the run counters.
			// They run with a serial probe: the four q arms already occupy
			// one goroutine each, and what the race measures is the serial
			// cost profile of each q.
			rs := &runStats{}
			runJoin(cor, mask, runOpts{
				k:      50,
				q:      q,
				m:      opt.Measure,
				c:      c,
				score:  makeScorer(cor, mask, nil, nil, opt.Measure),
				cancel: &cancel,
				stats:  rs,
			})
			if !cancel.Load() {
				once.Do(func() {
					winner = q
					cancel.Store(true)
				})
			}
		}(q)
	}
	wg.Wait()
	return winner
}

// JoinAll processes every config of the tree jointly (Section 4.2):
// configs are scheduled to workers in breadth-first order; writer configs
// (those with children) populate overlap databases their children reuse;
// a child seeds its top-k list from its parent's finished list, or starts
// empty and merges the parent's list when it arrives mid-run.
func JoinAll(cor *Corpus, c *blocker.PairSet, opt Options) *JoinResult {
	opt = opt.withDefaults()
	snk := newSink(telemetry.Or(opt.Metrics))
	res := &JoinResult{}
	res.Stats.ReuseActive = !opt.DisableScoreReuse && cor.AvgTokens >= opt.ReuseMinAvgTokens

	nodes := cor.Res.Nodes()
	q := opt.Q
	if q == AutoQ {
		q = SelectQ(cor, nodes[0].Mask, c, opt)
		snk.recordQ(q)
	}
	res.Stats.QUsed = q

	recordSuppressionProvenance(opt.Provenance, c)

	cancel, release := watchCancel(opt.Ctx)
	defer release()
	opt.Progress.beginRun(len(nodes))
	defer func() {
		opt.Progress.finishRun(cancel != nil && cancel.Load())
	}()

	idxOf := make(map[*config.Node]int, len(nodes))
	for i, n := range nodes {
		idxOf[n] = i
	}
	lists := make([]TopKList, len(nodes))
	// Per-node runStats survive the pool so Stats is folded plainly and
	// deterministically (node order) after the workers join.
	nodeStats := make([]*runStats, len(nodes))
	done := make([]atomic.Bool, len(nodes))
	dbs := make([]*hdb, len(nodes))
	mergeChs := make([]chan []ScoredPair, len(nodes))
	for i, n := range nodes {
		if len(n.Children) > 0 && res.Stats.ReuseActive {
			dbs[i] = newHDB()
		}
		if n.Parent != nil && !opt.DisableListReuse {
			mergeChs[i] = make(chan []ScoredPair, 1)
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One instance-id buffer per worker, reused by each config it
			// runs: runJoin is done with it before the next job starts.
			ids := &denseInstances{}
			for i := range jobs {
				n := nodes[i]
				var parentH *hdb
				if n.Parent != nil && res.Stats.ReuseActive {
					parentH = dbs[idxOf[n.Parent]]
				}
				rs := &runStats{}
				nodeStats[i] = rs
				csp := opt.Trace.Child("ssjoin.config",
					telemetry.L("config", cor.Res.String(n.Mask)),
					telemetry.L("q", strconv.Itoa(q)))
				ro := runOpts{
					k:            opt.K,
					q:            q,
					m:            opt.Measure,
					c:            c,
					score:        makeScorer(cor, n.Mask, parentH, dbs[i], opt.Measure),
					cancel:       cancel,
					stats:        rs,
					span:         csp,
					probeWorkers: opt.ProbeWorkers,
					prog:         opt.Progress,
					ids:          ids,
				}
				if n.Parent != nil && !opt.DisableListReuse {
					if pi := idxOf[n.Parent]; done[pi].Load() {
						ro.seeds = lists[pi].Pairs
						csp.SetAttr("list_reuse", "seed")
					} else {
						ro.mergeCh = mergeChs[i]
						csp.SetAttr("list_reuse", "merge")
					}
				}
				start := time.Now()
				lists[i] = runJoin(cor, n.Mask, ro)
				csp.SetAttrInt("scratch_scores", rs.n[cScratchScores])
				csp.SetAttrInt("reused_scores", rs.n[cReusedScores])
				csp.End()
				snk.record(rs, time.Since(start))
				recordJoinProvenance(opt.Provenance, cor, n.Mask, c, lists[i], opt.Measure)
				done[i].Store(true)
				for _, ch := range n.Children {
					ci := idxOf[ch]
					if mergeChs[ci] == nil {
						continue
					}
					select {
					case mergeChs[ci] <- lists[i].Pairs:
					default:
					}
				}
			}
		}()
	}
	for i := range nodes {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// Stats folds after the pool joins, in node order: the counts are
	// order-free sums and the worst-imbalance skew winner is
	// deterministic however the workers interleaved.
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
// QJoin against, and a usable fallback for tiny tables.
func BruteForce(cor *Corpus, mask config.Mask, c *blocker.PairSet, k int, m simfunc.SetMeasure) TopKList {
	top := newTopkHeap(k)
	for a := range cor.recsA {
		ra := &cor.recsA[a]
		lx := ra.lenUnder(mask)
		if lx == 0 {
			continue
		}
		for b := range cor.recsB {
			if c.Contains(a, b) {
				continue
			}
			rb := &cor.recsB[b]
			ly := rb.lenUnder(mask)
			if ly == 0 {
				continue
			}
			o, _ := overlapUnder(ra, rb, mask, false)
			top.offer(ScoredPair{A: int32(a), B: int32(b), Score: m.FromOverlap(o, lx, ly)})
		}
	}
	return top.list(mask)
}
