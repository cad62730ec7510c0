package ssjoin

import (
	"strconv"
	"time"

	"matchcatcher/internal/telemetry"
)

// counter names one join event count. This block is the only place a
// join count is declared: runStats, the shard fold, the Progress slots,
// the registry sink and Stats all index by it. Adding a counter takes
// one line here and one line in newSink; if Stats reports it, one field
// plus one line in Stats.counterFields; if it is published, the same in
// ProgressSnapshot. TestCountersReachEverySurface checks the wiring.
type counter uint8

const (
	// Published counters: the probe loop's stride flush copies these
	// into the shard's Progress slot (progCursor.flush).
	cPrefixEvents      counter = iota // prefix-extension events popped off the heap
	cProbesSkipped                    // token instances a prune wrote off unpopped
	cKillsPushCap                     // tier a: extension cap < k-th score at push
	cKillsLoopBreak                   // tier b: root cap < k-th score ended the event loop
	cKillsFlushBound                  // tier c: deferred pair's optimistic bound < k-th at flush
	cKillsLengthFilter                // length filter: min(lx,ly) overlap can't reach k-th
	cKillsPrefixPos                   // positional prefix filter: remaining overlap can't reach k-th
	numPublished                      // end of the published counters

	cScratchScores   counter = iota - 1 // pair scores computed by merging token lists
	cReusedScores                       // pair scores answered by a parent's H_γ (hit)
	cReuseMisses                        // scratch scores taken while a parent H_γ existed
	cDeferredPairs                      // pairs still pending (< q common instances) at flush
	cFlushedPairs                       // deferred pairs whose bound forced an exact score
	cSuppressedPairs                    // pairs skipped because they are in C
	cProbeShards                        // probe shards executed (0 on the serial path)
	cShardMergePairs                    // shard-heap pairs offered to the top-k merge
	cProgressSamples                    // progress flushes taken at the stride checkpoint
	numCounters
)

// runStats collects one config-join's event counts. It is owned by a
// single runJoin goroutine, so increments are plain (non-atomic) adds —
// the join's hot loop pays no synchronization for instrumentation. The
// counts are flushed exactly once when the join finishes, into both the
// per-run Stats aggregate and the telemetry registry, so the two always
// report through the same stream.
type runStats struct {
	n [numCounters]int64

	// Per-config shard-skew summary, set by runJoinSharded after the
	// shard pool joins (never set on shard-level blocks, so fold must not
	// sum it): work units are popped prefix events per shard.
	shardWorkMin   int64
	shardWorkMax   int64
	shardWorkP50   int64
	shardImbalance float64 // max shard work over mean shard work (0 = serial)
}

// pruneKills is the extension-prune grand total: every push-cap or
// loop-break kill removes prefix extensions, the other tiers skip pairs.
func (rs *runStats) pruneKills() int64 {
	return rs.n[cKillsPushCap] + rs.n[cKillsLoopBreak]
}

// fold adds one probe shard's counts into the parent run's block. It is
// called after the shard pool has joined, in shard-index order, so the
// folded totals are deterministic for a fixed shard count no matter which
// worker ran which shard when.
func (rs *runStats) fold(s *runStats) {
	for c := range rs.n {
		rs.n[c] += s.n[c]
	}
}

// sink holds the resolved telemetry instruments for one executor run.
// Instruments are resolved once (registry lookups off the hot path) and
// a nil-registry sink degrades to no-ops via nil instruments.
type sink struct {
	c           [numCounters]*telemetry.Counter
	reuseHits   *telemetry.Counter // alias of the reused-scores series
	pruneKills  *telemetry.Counter // push_cap + loop_break
	configJoins *telemetry.Counter
	joinSeconds *telemetry.Histogram
	// Shard-skew gauges (DESIGN.md "Join progress & skew
	// observability"): the most recently finished sharded config's work
	// distribution.
	skewConfigs   *telemetry.Counter
	skewWorkMin   *telemetry.Gauge
	skewWorkMax   *telemetry.Gauge
	skewWorkP50   *telemetry.Gauge
	skewImbalance *telemetry.Gauge
	reg           *telemetry.Registry
}

func newSink(reg *telemetry.Registry) *sink {
	return &sink{
		c: [numCounters]*telemetry.Counter{
			cPrefixEvents:      reg.Counter("mc_ssjoin_prefix_events_total"),
			cProbesSkipped:     reg.Counter("mc_ssjoin_progress_skipped_instances_total"),
			cKillsPushCap:      reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "push_cap")),
			cKillsLoopBreak:    reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "loop_break")),
			cKillsFlushBound:   reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "flush_bound")),
			cKillsLengthFilter: reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "length_filter")),
			cKillsPrefixPos:    reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", "prefix_pos")),
			cScratchScores:     reg.Counter("mc_ssjoin_scratch_scores_total"),
			cReusedScores:      reg.Counter("mc_ssjoin_reused_scores_total"),
			cReuseMisses:       reg.Counter("mc_ssjoin_reuse_misses_total"),
			cDeferredPairs:     reg.Counter("mc_ssjoin_deferred_pairs_total"),
			cFlushedPairs:      reg.Counter("mc_ssjoin_flushed_pairs_total"),
			cSuppressedPairs:   reg.Counter("mc_ssjoin_suppressed_pairs_total"),
			cProbeShards:       reg.Counter("mc_ssjoin_probe_shards_total"),
			cShardMergePairs:   reg.Counter("mc_ssjoin_shard_merge_pairs_total"),
			cProgressSamples:   reg.Counter("mc_ssjoin_progress_samples_total"),
		},
		reuseHits:     reg.Counter("mc_ssjoin_reuse_hits_total"),
		pruneKills:    reg.Counter("mc_ssjoin_prune_kills_total"),
		configJoins:   reg.Counter("mc_ssjoin_config_joins_total"),
		joinSeconds:   reg.Histogram("mc_ssjoin_join_seconds"),
		skewConfigs:   reg.Counter("mc_ssjoin_shard_skew_configs_total"),
		skewWorkMin:   reg.Gauge("mc_ssjoin_shard_skew_work_min"),
		skewWorkMax:   reg.Gauge("mc_ssjoin_shard_skew_work_max"),
		skewWorkP50:   reg.Gauge("mc_ssjoin_shard_skew_work_p50"),
		skewImbalance: reg.Gauge("mc_ssjoin_shard_skew_imbalance_ratio"),
		reg:           reg,
	}
}

// record flushes one finished config join into the registry.
func (s *sink) record(rs *runStats, dur time.Duration) {
	for c, inst := range s.c {
		inst.Add(rs.n[c])
	}
	s.reuseHits.Add(rs.n[cReusedScores]) // a reused score is exactly an H_γ hit
	s.pruneKills.Add(rs.pruneKills())
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

// counterFields maps each counter to the Stats field that reports it
// (nil: the counter is registry-only).
func (st *Stats) counterFields() [numCounters]*int64 {
	return [numCounters]*int64{
		cPrefixEvents:      &st.PrefixEvents,
		cProbesSkipped:     &st.SkippedInstances,
		cKillsPushCap:      &st.PruneKillsPushCap,
		cKillsLoopBreak:    &st.PruneKillsLoopBreak,
		cKillsFlushBound:   &st.PruneKillsFlushBound,
		cKillsLengthFilter: &st.PruneKillsLengthFilter,
		cKillsPrefixPos:    &st.PruneKillsPrefixPos,
		cScratchScores:     &st.ScratchScores,
		cReusedScores:      &st.ReusedScores,
		cReuseMisses:       &st.ReuseMisses,
		cDeferredPairs:     &st.DeferredPairs,
		cFlushedPairs:      &st.FlushedPairs,
		cSuppressedPairs:   &st.SuppressedPairs,
		cProbeShards:       &st.ProbeShards,
		cShardMergePairs:   &st.ShardMergePairs,
	}
}

// add folds one config join into the per-run aggregate: its counts, the
// derived PruneKills total, and its shard-skew summary, keeping the
// worst-imbalance config's distribution. JoinAll calls it after the
// worker pool has joined, in node order, so the skew winner is
// deterministic and the writes are plain.
func (st *Stats) add(rs *runStats) {
	for c, f := range st.counterFields() {
		if f != nil {
			*f += rs.n[c]
		}
	}
	st.PruneKills += rs.pruneKills()
	if rs.shardImbalance > st.ShardImbalance {
		st.ShardImbalance = rs.shardImbalance
		st.ShardWorkMin = rs.shardWorkMin
		st.ShardWorkMax = rs.shardWorkMax
		st.ShardWorkP50 = rs.shardWorkP50
	}
}
