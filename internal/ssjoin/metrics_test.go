package ssjoin

import (
	"math/rand"
	"testing"

	"matchcatcher/internal/telemetry"
)

// TestCountersReachEverySurface runs one JoinAll with every surface
// attached and checks that each declared counter arrives intact at each
// surface that reports it: its registry series (looked up by name here,
// independently of newSink) equals its Stats field, the final progress
// snapshot totals every published counter, and the derived PruneKills
// is push_cap + loop_break in the registry and in Stats. Every counter
// must be non-zero on this corpus (both strict pair filters fire, reuse
// is active, probes are sharded), so a counter wired to the wrong slot
// or to none cannot pass.
func TestCountersReachEverySurface(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	cor, _, c := randomCorpus(t, rng, 35, 35)
	reg := telemetry.New()
	prog := NewProgress()
	res := JoinAll(cor, c, Options{
		K: 3, Q: 2, Workers: 1, ProbeWorkers: 3, ReuseMinAvgTokens: 1,
		Metrics: reg, Progress: prog,
	})
	st := res.Stats

	tier := func(name string) int64 {
		return reg.Counter("mc_ssjoin_progress_prune_kills_total", telemetry.L("tier", name)).Value()
	}
	series := [numCounters]int64{
		cPrefixEvents:      reg.Counter("mc_ssjoin_prefix_events_total").Value(),
		cProbesSkipped:     reg.Counter("mc_ssjoin_progress_skipped_instances_total").Value(),
		cKillsPushCap:      tier("push_cap"),
		cKillsLoopBreak:    tier("loop_break"),
		cKillsFlushBound:   tier("flush_bound"),
		cKillsLengthFilter: tier("length_filter"),
		cKillsPrefixPos:    tier("prefix_pos"),
		cScratchScores:     reg.Counter("mc_ssjoin_scratch_scores_total").Value(),
		cReusedScores:      reg.Counter("mc_ssjoin_reused_scores_total").Value(),
		cReuseMisses:       reg.Counter("mc_ssjoin_reuse_misses_total").Value(),
		cDeferredPairs:     reg.Counter("mc_ssjoin_deferred_pairs_total").Value(),
		cFlushedPairs:      reg.Counter("mc_ssjoin_flushed_pairs_total").Value(),
		cSuppressedPairs:   reg.Counter("mc_ssjoin_suppressed_pairs_total").Value(),
		cProbeShards:       reg.Counter("mc_ssjoin_probe_shards_total").Value(),
		cShardMergePairs:   reg.Counter("mc_ssjoin_shard_merge_pairs_total").Value(),
		cProgressSamples:   reg.Counter("mc_ssjoin_progress_samples_total").Value(),
	}
	fields := st.counterFields()
	for k, got := range series {
		if got == 0 {
			t.Errorf("counter %d: registry series is zero on a corpus that exercises it", k)
		}
		switch f := fields[k]; {
		case f == nil && counter(k) != cProgressSamples: // the one registry-only counter
			t.Errorf("counter %d: no Stats field", k)
		case f != nil && *f != got:
			t.Errorf("counter %d: registry %d != Stats %d", k, got, *f)
		}
	}
	snap := prog.Snapshot()
	for k, f := range snap.counterFields() {
		if *f != *fields[k] {
			t.Errorf("published counter %d: snapshot %d != Stats %d", k, *f, *fields[k])
		}
	}
	if want := st.PruneKillsPushCap + st.PruneKillsLoopBreak; st.PruneKills != want {
		t.Errorf("Stats.PruneKills %d != push_cap + loop_break %d", st.PruneKills, want)
	}
	if got := reg.Counter("mc_ssjoin_prune_kills_total").Value(); got != st.PruneKills {
		t.Errorf("registry prune_kills %d != Stats.PruneKills %d", got, st.PruneKills)
	}
	if got := reg.Counter("mc_ssjoin_reuse_hits_total").Value(); got != st.ReusedScores {
		t.Errorf("registry reuse_hits %d != Stats.ReusedScores %d", got, st.ReusedScores)
	}
}
