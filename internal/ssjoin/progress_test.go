package ssjoin

// Tests for the join progress tracker: the determinism contract
// (attaching a Progress changes no output bit at any Workers), the
// accounting invariant (every token instance ends up popped or skipped,
// so the completion fraction converges to 1), the prune-tier split, and
// the zero-alloc discipline of the stride flush.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestProgressDeterminismGrid: the tracker is observe-only — JoinAll
// with a Progress attached must be byte-identical to the untracked
// reference at every Workers.
func TestProgressDeterminismGrid(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		cor, _, c := randomCorpus(t, rng, 30, 40)
		ref := JoinAll(cor, c, Options{K: 15, Workers: 1})
		for _, w := range []int{1, 2, 4} {
			got := JoinAll(cor, c, Options{K: 15, Workers: w, Progress: NewProgress()})
			requireIdenticalLists(t, fmt.Sprintf("seed=%d workers=%d", seed, w), got.Lists, ref.Lists)
		}
	}
}

// TestProgressAccountingConverges: when the run finishes, every A row
// of every config has been walked (done) and the derived fraction reads
// exactly 1.
func TestProgressAccountingConverges(t *testing.T) {
	for _, w := range []int{1, 3} {
		rng := rand.New(rand.NewSource(42))
		cor, _, c := randomCorpus(t, rng, 40, 50)
		prog := NewProgress()
		res := JoinAll(cor, c, Options{K: 10, Workers: w, Progress: prog})
		snap := prog.Snapshot()
		if !snap.Done {
			t.Fatalf("workers=%d: run finished but snapshot not Done", w)
		}
		if snap.Cancelled {
			t.Fatalf("workers=%d: uncancelled run marked cancelled", w)
		}
		if snap.Fraction != 1 {
			t.Fatalf("workers=%d: fraction = %v, want 1", w, snap.Fraction)
		}
		if want := int64(40 * len(res.Lists)); snap.ProbesTotal != want {
			t.Fatalf("workers=%d: %d rows accounted, want 40 rows x %d configs", w, snap.ProbesTotal, len(res.Lists))
		}
		if snap.ProbesDone != snap.ProbesTotal {
			t.Fatalf("workers=%d: done %d, want total %d", w, snap.ProbesDone, snap.ProbesTotal)
		}
		if snap.ConfigsDone != snap.ConfigsTotal || snap.ConfigsStarted != snap.ConfigsTotal {
			t.Fatalf("workers=%d: configs done/started/total = %d/%d/%d",
				w, snap.ConfigsDone, snap.ConfigsStarted, snap.ConfigsTotal)
		}
		if snap.RowLive != 0 {
			t.Fatalf("workers=%d: finished run reports a live row of %d candidates", w, snap.RowLive)
		}
		// The tracker and Stats report through the same counter stream.
		if snap.ProbesDone != res.Stats.Rows {
			t.Fatalf("workers=%d: snapshot rows %d != Stats.Rows %d",
				w, snap.ProbesDone, res.Stats.Rows)
		}
	}
}

// TestProgressPruneTierSplit: the per-tier kill counters partition the
// PruneKills total (tiers a and b; the row-end bound is counted
// separately because it skips pairs, not prefixes), and every row-end
// candidate is either dropped by the bound or scored. That every
// tier reaches the snapshot is TestCountersReachEverySurface's job.
func TestProgressPruneTierSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cor, _, c := randomCorpus(t, rng, 40, 50)
	res := JoinAll(cor, c, Options{K: 5})
	st := res.Stats
	if st.PruneKillsPushCap+st.PruneKillsLoopBreak != st.PruneKills {
		t.Fatalf("tier split %d + %d != PruneKills %d",
			st.PruneKillsPushCap, st.PruneKillsLoopBreak, st.PruneKills)
	}
	if st.PruneKillsFlushBound != st.DeferredPairs-st.FlushedPairs {
		t.Fatalf("flush-bound kills %d != deferred %d - flushed %d",
			st.PruneKillsFlushBound, st.DeferredPairs, st.FlushedPairs)
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
		JoinAll(cor, c, Options{K: 25, Progress: prog})
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
	if c := p.counters(); c != nil {
		t.Fatalf("nil Progress returned a counter block")
	}
	snap := p.Snapshot()
	if snap.Done || snap.ProbesTotal != 0 || snap.ETASeconds != -1 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
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
	cur := progCursor{block: p.counters()}
	rs := &runStats{}
	allocs := testing.AllocsPerRun(1000, func() {
		rs.n[cRows] += 17
		rs.n[cKillsPushCap]++
		cur.flush(rs, 5, 9)
	})
	if allocs != 0 {
		t.Fatalf("progress flush allocates %v times per run, want 0", allocs)
	}
}

// TestProgressConcurrentFlushers: many goroutines flushing into the one
// counter block (the Workers > 1 shape, where concurrent configs share
// it) must race-cleanly accumulate.
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
			cur := progCursor{block: p.counters()}
			cur.block.probesTotal.Add(perG)
			rs := &runStats{}
			for i := 0; i < perG; i++ {
				rs.n[cRows]++
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
	if snap.Samples != 8*perG {
		t.Fatalf("%d samples, want %d", snap.Samples, 8*perG)
	}
}
