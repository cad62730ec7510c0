package ssjoin

// Tests for the join progress tracker: the determinism contract
// (attaching a Progress changes no output bit at any Workers ×
// ProbeWorkers), the accounting invariant (every owned token instance
// ends up popped or skipped, so the completion fraction converges to
// 1), the prune-tier split, the skew summaries, and the zero-alloc
// discipline of the stride flush.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestProgressDeterminismGrid: the tracker is observe-only — JoinAll
// with a Progress attached must be byte-identical to the untracked
// reference at every Workers × ProbeWorkers.
func TestProgressDeterminismGrid(t *testing.T) {
	grid := []int{1, 2, 4}
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		cor, _, c := randomCorpus(t, rng, 30, 40)
		ref := JoinAll(cor, c, Options{K: 15, Q: 2, Workers: 1, ProbeWorkers: 1})
		for _, w := range grid {
			for _, pw := range grid {
				got := JoinAll(cor, c, Options{
					K: 15, Q: 2, Workers: w, ProbeWorkers: pw,
					Progress: NewProgress(),
				})
				requireIdenticalLists(t,
					fmt.Sprintf("seed=%d workers=%d probeworkers=%d", seed, w, pw),
					got.Lists, ref.Lists)
			}
		}
	}
}

// TestProgressAccountingConverges: when the run finishes, every owned
// token instance has been accounted — popped (done) or written off by a
// prune (skipped) — and the derived fraction reads exactly 1.
func TestProgressAccountingConverges(t *testing.T) {
	for _, pw := range []int{1, 3} {
		rng := rand.New(rand.NewSource(42))
		cor, _, c := randomCorpus(t, rng, 40, 50)
		prog := NewProgress()
		res := JoinAll(cor, c, Options{K: 10, Q: 2, ProbeWorkers: pw, Progress: prog})
		snap := prog.Snapshot()
		if !snap.Done {
			t.Fatalf("pw=%d: run finished but snapshot not Done", pw)
		}
		if snap.Cancelled {
			t.Fatalf("pw=%d: uncancelled run marked cancelled", pw)
		}
		if snap.Fraction != 1 {
			t.Fatalf("pw=%d: fraction = %v, want 1", pw, snap.Fraction)
		}
		if snap.ProbesTotal == 0 {
			t.Fatalf("pw=%d: no probes accounted", pw)
		}
		if got := snap.ProbesDone + snap.ProbesSkipped; got != snap.ProbesTotal {
			t.Fatalf("pw=%d: done %d + skipped %d = %d, want total %d",
				pw, snap.ProbesDone, snap.ProbesSkipped, got, snap.ProbesTotal)
		}
		if snap.ConfigsDone != snap.ConfigsTotal || snap.ConfigsStarted != snap.ConfigsTotal {
			t.Fatalf("pw=%d: configs done/started/total = %d/%d/%d",
				pw, snap.ConfigsDone, snap.ConfigsStarted, snap.ConfigsTotal)
		}
		if snap.EventHeapLive != 0 {
			t.Fatalf("pw=%d: finished run reports live event heap %d", pw, snap.EventHeapLive)
		}
		// The tracker and Stats report through the same counter stream.
		if snap.ProbesDone != res.Stats.PrefixEvents {
			t.Fatalf("pw=%d: snapshot pops %d != Stats.PrefixEvents %d",
				pw, snap.ProbesDone, res.Stats.PrefixEvents)
		}
		if snap.ProbesSkipped != res.Stats.SkippedInstances {
			t.Fatalf("pw=%d: snapshot skipped %d != Stats.SkippedInstances %d",
				pw, snap.ProbesSkipped, res.Stats.SkippedInstances)
		}
	}
}

// TestProgressPruneTierSplit: the per-tier kill counters partition the
// legacy PruneKills total (tiers a and b; the flush bound is counted
// separately because flush skips were never in PruneKills).
func TestProgressPruneTierSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cor, _, c := randomCorpus(t, rng, 40, 50)
	prog := NewProgress()
	res := JoinAll(cor, c, Options{K: 5, Q: 2, ProbeWorkers: 2, Progress: prog})
	st := res.Stats
	if st.PruneKillsPushCap+st.PruneKillsLoopBreak != st.PruneKills {
		t.Fatalf("tier split %d + %d != PruneKills %d",
			st.PruneKillsPushCap, st.PruneKillsLoopBreak, st.PruneKills)
	}
	if st.PruneKillsFlushBound != st.DeferredPairs-st.FlushedPairs {
		t.Fatalf("flush-bound kills %d != deferred %d - flushed %d",
			st.PruneKillsFlushBound, st.DeferredPairs, st.FlushedPairs)
	}
	snap := prog.Snapshot()
	if snap.PruneKillPushCap != st.PruneKillsPushCap ||
		snap.PruneKillLoopBreak != st.PruneKillsLoopBreak ||
		snap.PruneKillFlushBound != st.PruneKillsFlushBound {
		t.Fatalf("snapshot tiers (%d,%d,%d) != Stats tiers (%d,%d,%d)",
			snap.PruneKillPushCap, snap.PruneKillLoopBreak, snap.PruneKillFlushBound,
			st.PruneKillsPushCap, st.PruneKillsLoopBreak, st.PruneKillsFlushBound)
	}
}

// TestProgressShardSkew: sharded runs produce a well-formed skew
// summary in both the Stats aggregate and the snapshot, and the
// summary is deterministic across reruns at a fixed shard count.
func TestProgressShardSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cor, _, c := randomCorpus(t, rng, 60, 80)
	// Workers: 1 — at Workers > 1 the list-reuse handoff, so the shard work, is timing.
	run := func() (Stats, ProgressSnapshot) {
		prog := NewProgress()
		res := JoinAll(cor, c, Options{K: 10, Q: 2, Workers: 1, ProbeWorkers: 4, Progress: prog})
		return res.Stats, prog.Snapshot()
	}
	st, snap := run()
	if st.ShardImbalance < 1 {
		t.Fatalf("sharded run has imbalance %v < 1 (min %d max %d)",
			st.ShardImbalance, st.ShardWorkMin, st.ShardWorkMax)
	}
	if st.ShardWorkMin > st.ShardWorkP50 || st.ShardWorkP50 > st.ShardWorkMax {
		t.Fatalf("skew order violated: min %d p50 %d max %d",
			st.ShardWorkMin, st.ShardWorkP50, st.ShardWorkMax)
	}
	if snap.Skew.Shards != 4 {
		t.Fatalf("snapshot skew over %d shards, want 4", snap.Skew.Shards)
	}
	if snap.Skew.WorkMin > snap.Skew.WorkP50 || snap.Skew.WorkP50 > snap.Skew.WorkMax {
		t.Fatalf("snapshot skew order violated: %+v", snap.Skew)
	}
	st2, _ := run()
	if st != st2 {
		t.Fatalf("skew stats not deterministic across reruns:\n%+v\n%+v", st, st2)
	}
}

// TestProgressMidRunSnapshot drives a join on one goroutine and
// snapshots from another: snapshots must be safe concurrently, the
// fraction must stay within [0, 1], and counters must be monotone.
func TestProgressMidRunSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cor, _, c := randomCorpus(t, rng, 120, 150)
	prog := NewProgress()
	done := make(chan struct{})
	go func() {
		defer close(done)
		JoinAll(cor, c, Options{K: 25, Q: 1, ProbeWorkers: 2, Progress: prog})
	}()
	var lastDone int64
	for {
		snap := prog.Snapshot()
		if snap.Fraction < 0 || snap.Fraction > 1 {
			t.Errorf("fraction %v out of [0,1]", snap.Fraction)
		}
		// The fraction itself may dip when a new config starts (the
		// denominator estimate grows), but raw pops only accumulate.
		if snap.ProbesDone < lastDone {
			t.Errorf("probesDone went backwards: %d -> %d", lastDone, snap.ProbesDone)
		}
		lastDone = snap.ProbesDone
		select {
		case <-done:
			final := prog.Snapshot()
			if !final.Done || final.Fraction != 1 {
				t.Fatalf("final snapshot: done=%v fraction=%v", final.Done, final.Fraction)
			}
			return
		case <-time.After(50 * time.Microsecond):
		}
	}
}

// TestProgressNilSafe: the nil tracker is a full no-op — Snapshot
// answers zeros and the hooks never panic.
func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.beginRun(3)
	p.configStarted()
	p.configDone()
	p.finishRun(false)
	if s := p.slot(0); s != nil {
		t.Fatalf("nil Progress returned a slot")
	}
	snap := p.Snapshot()
	if snap.Done || snap.ProbesTotal != 0 || snap.ETASeconds != -1 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

// TestProgressSlotSharing: shard indexes at or above the slot cap fold
// into their residue slot instead of walking off the array.
func TestProgressSlotSharing(t *testing.T) {
	p := NewProgress()
	if p.slot(progressShardSlots) != p.slot(0) {
		t.Fatalf("slot %d should alias slot 0", progressShardSlots)
	}
	if p.slot(progressShardSlots+3) != p.slot(3) {
		t.Fatalf("slot %d should alias slot 3", progressShardSlots+3)
	}
}

// TestProgressCancelMark: a cancelled run is flagged in the snapshot.
func TestProgressCancelMark(t *testing.T) {
	p := NewProgress()
	p.beginRun(2)
	p.configStarted()
	p.finishRun(true)
	snap := p.Snapshot()
	if !snap.Done || !snap.Cancelled {
		t.Fatalf("cancelled run: done=%v cancelled=%v", snap.Done, snap.Cancelled)
	}
}

// TestProgressFlushAllocs is the AllocsPerRun twin of the hotalloc
// static gate: the stride flush must not allocate.
func TestProgressFlushAllocs(t *testing.T) {
	p := NewProgress()
	cur := progCursor{slot: p.slot(0)}
	rs := &runStats{}
	allocs := testing.AllocsPerRun(1000, func() {
		rs.prefixEvents += 17
		rs.probesSkipped += 3
		rs.killsPushCap++
		cur.flush(rs, 5, 9)
	})
	if allocs != 0 {
		t.Fatalf("progress flush allocates %v times per run, want 0", allocs)
	}
}

// TestProgressConcurrentFlushers: many goroutines flushing into the
// same and different slots (the Workers > 1, serial-probe shape where
// every config shares slot 0) must race-cleanly accumulate.
func TestProgressConcurrentFlushers(t *testing.T) {
	p := NewProgress()
	p.beginRun(8)
	var wg sync.WaitGroup
	const perG = 100
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p.configStarted()
			slot := p.slot(g % 2)
			slot.probesTotal.Add(perG)
			cur := progCursor{slot: slot}
			rs := &runStats{}
			for i := 0; i < perG; i++ {
				rs.prefixEvents++
				cur.flush(rs, i, i)
			}
			p.configDone()
		}(g)
	}
	wg.Wait()
	p.finishRun(false)
	snap := p.Snapshot()
	if snap.ProbesDone != 8*perG || snap.ProbesTotal != 8*perG {
		t.Fatalf("done/total = %d/%d, want %d/%d", snap.ProbesDone, snap.ProbesTotal, 8*perG, 8*perG)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("%d active slots, want 2", len(snap.Shards))
	}
}
