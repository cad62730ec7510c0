package ssjoin

import (
	"strconv"
	"sync/atomic"
	"time"

	"matchcatcher/internal/telemetry"
)

// runStats collects one config-join's event counts. It is owned by a
// single runJoin goroutine, so increments are plain (non-atomic) adds —
// the join's hot loop pays no synchronization for instrumentation. The
// counts are flushed exactly once when the join finishes, into both the
// per-run Stats aggregate and the telemetry registry, so the two always
// report through the same stream.
type runStats struct {
	scratchScores   int64 // pair scores computed by merging token lists
	reusedScores    int64 // pair scores answered by a parent's H_γ (hit)
	reuseMisses     int64 // scratch scores taken while a parent H_γ existed
	prefixEvents    int64 // prefix-extension events popped off the heap
	pruneKills      int64 // extensions pruned because their cap < k-th score
	deferredPairs   int64 // pairs still pending (< q common instances) at flush
	flushedPairs    int64 // deferred pairs whose bound forced an exact score
	suppressedPairs int64 // pairs skipped because they are in C
	probeShards     int64 // probe shards executed (0 on the serial path)
	shardMergePairs int64 // shard-heap pairs offered to the top-k merge

	// Prune-tier split of pruneKills (pruneKills stays the grand total),
	// plus the progress tracker's probe accounting: probesSkipped counts
	// token instances written off by a prune (so done+skipped converges
	// to the owned-instance total), progressSamples counts stride
	// flushes into the shard's Progress slot.
	killsPushCap    int64 // tier a: extension cap < k-th score at push
	killsLoopBreak  int64 // tier b: root cap < k-th score ended the event loop
	killsFlushBound int64 // tier c: deferred pair's optimistic bound < k-th at flush
	probesSkipped   int64 // token instances a prune wrote off unpopped
	progressSamples int64 // progress flushes taken at the stride checkpoint

	// ShallowBlocker-style strict pair filters (first touch only; see
	// flatProbe.touch). Like killsFlushBound, these skip scoring work on
	// pairs, not prefix extensions, so they are separate tiers and not
	// part of the pruneKills grand total.
	killsLengthFilter int64 // length filter: min(lx,ly) overlap can't reach k-th
	killsPrefixPos    int64 // positional prefix filter: remaining overlap can't reach k-th

	// Per-config shard-skew summary, set by runJoinSharded after the
	// shard pool joins (never set on shard-level blocks, so fold must not
	// sum it): work units are popped prefix events per shard.
	shardWorkMin   int64
	shardWorkMax   int64
	shardWorkP50   int64
	shardImbalance float64 // max shard work over mean shard work (0 = serial)
}

// fold adds one probe shard's counts into the parent run's block. It is
// called after the shard pool has joined, in shard-index order, so the
// folded totals are deterministic for a fixed shard count no matter which
// worker ran which shard when.
func (rs *runStats) fold(s *runStats) {
	rs.scratchScores += s.scratchScores
	rs.reusedScores += s.reusedScores
	rs.reuseMisses += s.reuseMisses
	rs.prefixEvents += s.prefixEvents
	rs.pruneKills += s.pruneKills
	rs.deferredPairs += s.deferredPairs
	rs.flushedPairs += s.flushedPairs
	rs.suppressedPairs += s.suppressedPairs
	rs.probeShards += s.probeShards
	rs.shardMergePairs += s.shardMergePairs
	rs.killsPushCap += s.killsPushCap
	rs.killsLoopBreak += s.killsLoopBreak
	rs.killsFlushBound += s.killsFlushBound
	rs.probesSkipped += s.probesSkipped
	rs.progressSamples += s.progressSamples
	rs.killsLengthFilter += s.killsLengthFilter
	rs.killsPrefixPos += s.killsPrefixPos
}

// sink holds the resolved telemetry instruments for one executor run.
// Instruments are resolved once (registry lookups off the hot path) and
// a nil-registry sink degrades to no-ops via nil instruments.
type sink struct {
	scratch, reused        *telemetry.Counter
	reuseHits, reuseMisses *telemetry.Counter
	prefixEvents           *telemetry.Counter
	pruneKills             *telemetry.Counter
	deferred, flushed      *telemetry.Counter
	suppressed             *telemetry.Counter
	probeShards            *telemetry.Counter
	shardMergePairs        *telemetry.Counter
	configJoins            *telemetry.Counter
	joinSeconds            *telemetry.Histogram
	// Progress/prune-tier counters and the shard-skew gauges (DESIGN.md
	// "Join progress & skew observability"). The tier label is the
	// bounded three-value prune vocabulary; skew gauges report the most
	// recently finished sharded config's work distribution.
	killsPushCap      *telemetry.Counter
	killsLoopBreak    *telemetry.Counter
	killsFlushBound   *telemetry.Counter
	killsLengthFilter *telemetry.Counter
	killsPrefixPos    *telemetry.Counter
	probesSkipped     *telemetry.Counter
	progressSamples   *telemetry.Counter
	skewConfigs       *telemetry.Counter
	skewWorkMin       *telemetry.Gauge
	skewWorkMax       *telemetry.Gauge
	skewWorkP50       *telemetry.Gauge
	skewImbalance     *telemetry.Gauge
	reg               *telemetry.Registry
}

func newSink(reg *telemetry.Registry) *sink {
	return &sink{
		scratch:           reg.Counter("mc_ssjoin_scratch_scores_total"),
		reused:            reg.Counter("mc_ssjoin_reused_scores_total"),
		reuseHits:         reg.Counter("mc_ssjoin_reuse_hits_total"),
		reuseMisses:       reg.Counter("mc_ssjoin_reuse_misses_total"),
		prefixEvents:      reg.Counter("mc_ssjoin_prefix_events_total"),
		pruneKills:        reg.Counter("mc_ssjoin_prune_kills_total"),
		deferred:          reg.Counter("mc_ssjoin_deferred_pairs_total"),
		flushed:           reg.Counter("mc_ssjoin_flushed_pairs_total"),
		suppressed:        reg.Counter("mc_ssjoin_suppressed_pairs_total"),
		probeShards:       reg.Counter("mc_ssjoin_probe_shards_total"),
		shardMergePairs:   reg.Counter("mc_ssjoin_shard_merge_pairs_total"),
		configJoins:       reg.Counter("mc_ssjoin_config_joins_total"),
		joinSeconds:       reg.Histogram("mc_ssjoin_join_seconds"),
		killsPushCap:      reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "push_cap")),
		killsLoopBreak:    reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "loop_break")),
		killsFlushBound:   reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "flush_bound")),
		killsLengthFilter: reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "length_filter")),
		killsPrefixPos:    reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "prefix_pos")),
		probesSkipped:     reg.Counter("mc_ssjoin_progress_skipped_instances_total"),
		progressSamples:   reg.Counter("mc_ssjoin_progress_samples_total"),
		skewConfigs:       reg.Counter("mc_ssjoin_shard_skew_configs_total"),
		skewWorkMin:       reg.Gauge("mc_ssjoin_shard_skew_work_min"),
		skewWorkMax:       reg.Gauge("mc_ssjoin_shard_skew_work_max"),
		skewWorkP50:       reg.Gauge("mc_ssjoin_shard_skew_work_p50"),
		skewImbalance:     reg.Gauge("mc_ssjoin_shard_skew_imbalance_ratio"),
		reg:               reg,
	}
}

// record flushes one finished config join into the registry.
func (s *sink) record(rs *runStats, dur time.Duration) {
	s.scratch.Add(rs.scratchScores)
	s.reused.Add(rs.reusedScores)
	s.reuseHits.Add(rs.reusedScores) // a reused score is exactly an H_γ hit
	s.reuseMisses.Add(rs.reuseMisses)
	s.prefixEvents.Add(rs.prefixEvents)
	s.pruneKills.Add(rs.pruneKills)
	s.deferred.Add(rs.deferredPairs)
	s.flushed.Add(rs.flushedPairs)
	s.suppressed.Add(rs.suppressedPairs)
	s.probeShards.Add(rs.probeShards)
	s.shardMergePairs.Add(rs.shardMergePairs)
	s.killsPushCap.Add(rs.killsPushCap)
	s.killsLoopBreak.Add(rs.killsLoopBreak)
	s.killsFlushBound.Add(rs.killsFlushBound)
	s.killsLengthFilter.Add(rs.killsLengthFilter)
	s.killsPrefixPos.Add(rs.killsPrefixPos)
	s.probesSkipped.Add(rs.probesSkipped)
	s.progressSamples.Add(rs.progressSamples)
	if rs.shardImbalance > 0 {
		s.skewConfigs.Inc()
		s.skewWorkMin.Set(float64(rs.shardWorkMin))
		s.skewWorkMax.Set(float64(rs.shardWorkMax))
		s.skewWorkP50.Set(float64(rs.shardWorkP50))
		s.skewImbalance.Set(rs.shardImbalance)
	}
	s.configJoins.Inc()
	s.joinSeconds.Observe(dur.Seconds())
}

// recordQ records the outcome of the empirical q-selection race.
func (s *sink) recordQ(q int) {
	s.reg.Counter("mc_ssjoin_q_selected_total", telemetry.L("q", strconv.Itoa(q))).Inc()
}

// add folds one config join's counts into the per-run aggregate
// (workers run concurrently, so this side uses atomics).
func (st *Stats) add(rs *runStats) {
	atomic.AddInt64(&st.ScratchScores, rs.scratchScores)
	atomic.AddInt64(&st.ReusedScores, rs.reusedScores)
	atomic.AddInt64(&st.ReuseMisses, rs.reuseMisses)
	atomic.AddInt64(&st.PrefixEvents, rs.prefixEvents)
	atomic.AddInt64(&st.PruneKills, rs.pruneKills)
	atomic.AddInt64(&st.DeferredPairs, rs.deferredPairs)
	atomic.AddInt64(&st.FlushedPairs, rs.flushedPairs)
	atomic.AddInt64(&st.SuppressedPairs, rs.suppressedPairs)
	atomic.AddInt64(&st.ProbeShards, rs.probeShards)
	atomic.AddInt64(&st.ShardMergePairs, rs.shardMergePairs)
	atomic.AddInt64(&st.PruneKillsPushCap, rs.killsPushCap)
	atomic.AddInt64(&st.PruneKillsLoopBreak, rs.killsLoopBreak)
	atomic.AddInt64(&st.PruneKillsFlushBound, rs.killsFlushBound)
	atomic.AddInt64(&st.PruneKillsLengthFilter, rs.killsLengthFilter)
	atomic.AddInt64(&st.PruneKillsPrefixPos, rs.killsPrefixPos)
	atomic.AddInt64(&st.SkippedInstances, rs.probesSkipped)
}

// mergeSkew folds one config's shard-skew summary into the aggregate,
// keeping the worst-imbalance config's distribution. It is called after
// the worker pool has joined, in node order, so the winner is
// deterministic (plain writes — no concurrent adders remain).
func (st *Stats) mergeSkew(rs *runStats) {
	if rs.shardImbalance > st.ShardImbalance {
		st.ShardImbalance = rs.shardImbalance
		st.ShardWorkMin = rs.shardWorkMin
		st.ShardWorkMax = rs.shardWorkMax
		st.ShardWorkP50 = rs.shardWorkP50
	}
}
