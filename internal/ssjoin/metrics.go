package ssjoin

import (
	"time"

	"matchcatcher/internal/telemetry"
)

// counter names one join event count. This block is the only place a
// join count is declared: runStats, the Progress counter block, the
// registry sink and Stats all index by it. Adding a counter takes
// one line here and one line in newSink (a prune tier: one line in
// pruneTiers instead); if Stats reports it, one field
// plus one line in Stats.counterFields; if it is published, the same in
// ProgressSnapshot. TestCountersReachEverySurface checks the wiring.
type counter uint8

const (
	// Published counters: the row loop's stride flush copies these
	// into the run's Progress counter block (progCursor.flush).
	cRows              counter = iota // A rows walked to their end
	cKillsPushCap                     // tier a: a row's prefix cut where its cap fell below the k-th score
	cKillsLoopBreak                   // tier b: a posting walk stopped at an entry below the k-th score
	cKillsFlushBound                  // tier c: row-end candidate's bound < k-th score
	cKillsLengthFilter                // length filter: min(lx,ly) overlap can't reach k-th
	cKillsPrefixPos                   // positional prefix filter: remaining overlap can't reach k-th
	numPublished                      // end of the published counters

	cPrefixEvents    counter = iota - 1 // A prefix instances probed
	cScratchScores                      // exact pair scores (one token-list merge each)
	cDeferredPairs                      // row-end candidates (positive count, not dead)
	cFlushedPairs                       // row-end candidates the bound kept, scored exactly
	cSuppressedPairs                    // C pairs that survive the strict pair filters at first touch
	cProgressSamples                    // progress flushes taken at the stride checkpoint
	numCounters
)

// pruneTiers names the prune-tier counters in counter-table order: the
// tier label of their mc_ssjoin_progress_prune_kills_total series and
// the compact label meters print (ProgressSnapshot.PruneTiers).
var pruneTiers = [...]struct {
	c           counter
	tier, label string
}{
	{cKillsPushCap, "push_cap", "push"},
	{cKillsLoopBreak, "loop_break", "loop"},
	{cKillsFlushBound, "flush_bound", "flush"},
	{cKillsLengthFilter, "length_filter", "len"},
	{cKillsPrefixPos, "prefix_pos", "pos"},
}

// runStats collects one config-join's event counts. It is owned by a
// single runJoin goroutine, so increments are plain (non-atomic) adds —
// the join's row loop pays no synchronization for instrumentation. The
// counts are flushed exactly once when the join finishes, into both the
// per-run Stats aggregate and the telemetry registry, so the two always
// report through the same stream.
type runStats struct {
	n [numCounters]int64
}

// pruneKills is the prefix-cut grand total: every push-cap or
// loop-break kill cuts a prefix or posting walk short, the other tiers
// skip pairs.
func (rs *runStats) pruneKills() int64 {
	return rs.n[cKillsPushCap] + rs.n[cKillsLoopBreak]
}

// sink holds the resolved telemetry instruments for one executor run.
// Instruments are resolved once (registry lookups off the hot path) and
// a nil-registry sink degrades to no-ops via nil instruments.
type sink struct {
	c           [numCounters]*telemetry.Counter
	pruneKills  *telemetry.Counter // push_cap + loop_break
	configJoins *telemetry.Counter
	joinSeconds *telemetry.Histogram
}

func newSink(reg *telemetry.Registry) *sink {
	s := &sink{
		c: [numCounters]*telemetry.Counter{
			cRows:            reg.Counter("mc_ssjoin_rows_total"),
			cPrefixEvents:    reg.Counter("mc_ssjoin_prefix_events_total"),
			cScratchScores:   reg.Counter("mc_ssjoin_scratch_scores_total"),
			cDeferredPairs:   reg.Counter("mc_ssjoin_deferred_pairs_total"),
			cFlushedPairs:    reg.Counter("mc_ssjoin_flushed_pairs_total"),
			cSuppressedPairs: reg.Counter("mc_ssjoin_suppressed_pairs_total"),
			cProgressSamples: reg.Counter("mc_ssjoin_progress_samples_total"),
		},
		pruneKills:  reg.Counter("mc_ssjoin_prune_kills_total"),
		configJoins: reg.Counter("mc_ssjoin_config_joins_total"),
		joinSeconds: reg.Histogram("mc_ssjoin_join_seconds"),
	}
	for _, t := range pruneTiers {
		s.c[t.c] = reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", t.tier))
	}
	return s
}

// record flushes one finished config join into the registry.
func (s *sink) record(rs *runStats, dur time.Duration) {
	for c, inst := range s.c {
		inst.Add(rs.n[c])
	}
	s.pruneKills.Add(rs.pruneKills())
	s.configJoins.Inc()
	s.joinSeconds.Observe(dur.Seconds())
}

// counterFields maps each counter to the Stats field that reports it
// (nil: the counter is registry-only).
func (st *Stats) counterFields() [numCounters]*int64 {
	return [numCounters]*int64{
		cRows:              &st.Rows,
		cPrefixEvents:      &st.PrefixEvents,
		cKillsPushCap:      &st.PruneKillsPushCap,
		cKillsLoopBreak:    &st.PruneKillsLoopBreak,
		cKillsFlushBound:   &st.PruneKillsFlushBound,
		cKillsLengthFilter: &st.PruneKillsLengthFilter,
		cKillsPrefixPos:    &st.PruneKillsPrefixPos,
		cScratchScores:     &st.ScratchScores,
		cDeferredPairs:     &st.DeferredPairs,
		cFlushedPairs:      &st.FlushedPairs,
		cSuppressedPairs:   &st.SuppressedPairs,
	}
}

// add folds one config join into the per-run aggregate: its counts and
// the derived PruneKills total. JoinAll calls it after the worker pool
// has joined, so the writes are plain.
func (st *Stats) add(rs *runStats) {
	for c, f := range st.counterFields() {
		if f != nil {
			*f += rs.n[c]
		}
	}
	st.PruneKills += rs.pruneKills()
}
