package ssjoin

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
)

// cancelCorpus builds tables whose root-config probe passes dozens of
// stride checkpoints: 500 records a side, 40 words each from a
// 3000-word vocabulary, so postings stay short and BruteForce cheap.
func cancelCorpus(t *testing.T) (*Corpus, *config.Result, *blocker.PairSet) {
	t.Helper()
	const n = 500
	rng := rand.New(rand.NewSource(37))
	rows := func() [][]string {
		out := make([][]string, n)
		for i := range out {
			words := make([]string, 40)
			for j := range words {
				words[j] = fmt.Sprintf("w%d", rng.Intn(3000))
			}
			out[i] = []string{strings.Join(words, " ")}
		}
		return out
	}
	rowsA := rows()
	cor, res := corpusFor(t, []string{"v"}, rowsA, rows())
	c := blocker.NewPairSet()
	for i := 0; i < n*n/10; i++ {
		c.Add(rng.Intn(n), rng.Intn(n))
	}
	return cor, res, c
}

// shortCorpus builds tables of n records a side, 3 words each from a
// 12-word vocabulary, so most pairs share a word. At n = 150 the
// root-config join ends its index and probe loops before their first
// stride checkpoint (fewer than progressStride records and instances)
// yet leaves thousands of touched pairs for the exactness flush.
func shortCorpus(t *testing.T, n int) (*Corpus, *config.Result, *blocker.PairSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(39))
	rows := func() [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = []string{fmt.Sprintf("w%d w%d w%d", rng.Intn(12), rng.Intn(12), rng.Intn(12))}
		}
		return out
	}
	rowsA := rows()
	cor, res := corpusFor(t, []string{"v"}, rowsA, rows())
	c := blocker.NewPairSet()
	for i := 0; i < n*n/10; i++ {
		c.Add(rng.Intn(n), rng.Intn(n))
	}
	return cor, res, c
}

// TestCancelStopsRun: a run whose done channel is already closed stops
// at the probe loop's first stride checkpoint, having popped
// progressStride-1 events, and returns a valid (short) list; on tables
// past progressStride records it stops in the index phase, before any
// pop.
func TestCancelStopsRun(t *testing.T) {
	cor, res, c := cancelCorpus(t)
	done := make(chan struct{})
	close(done)
	rs := &runStats{}
	got := runJoin(cor, res.Root.Mask, runOpts{
		k: 20, q: 2, m: simfunc.Jaccard, c: c,
		done:  done,
		stats: rs,
	})
	if len(got.Pairs) > 20 {
		t.Errorf("cancelled run returned %d pairs", len(got.Pairs))
	}
	if rs.n[cPrefixEvents] != progressStride-1 {
		t.Errorf("cancelled run popped %d events, want %d (the first stride checkpoint)",
			rs.n[cPrefixEvents], progressStride-1)
	}

	wide, wideRes, wideC := shortCorpus(t, progressStride)
	rs = &runStats{}
	got = runJoin(wide, wideRes.Root.Mask, runOpts{k: 20, q: 2, m: simfunc.Jaccard, c: wideC, done: done, stats: rs})
	if len(got.Pairs) != 0 || rs.n[cPrefixEvents] != 0 {
		t.Errorf("run cancelled in the index phase returned %d pairs after %d events, want none",
			len(got.Pairs), rs.n[cPrefixEvents])
	}
}

// TestCancelSweepPooledProbe cancels JoinOne on both pair stores at the
// first stride checkpoint (a pre-cancelled Ctx), mid-run (once the run's
// Progress has taken n samples) and in the exactness flush, and checks
// after every cancelled
// run that the next uncancelled JoinOne — which takes the cancelled
// run's pooled probe block back — is bit-identical to BruteForce: a
// cancelled probe must park its block clean.
func TestCancelSweepPooledProbe(t *testing.T) {
	const k = 200
	sweep := []int64{1, 2, 4, 8}
	cor, res, c := cancelCorpus(t)
	mask := res.Root.Mask
	want := BruteForce(cor, mask, c, k, simfunc.Jaccard)
	for _, hashed := range []bool{false, true} {
		useHashedStore(t, hashed)
		store := fmt.Sprintf("hashed=%v", hashed)
		full := NewProgress()
		requireIdentical(t, store+" uncancelled", JoinOne(cor, mask, c, Options{K: k, Progress: full}), want)
		fullSnap := full.Snapshot()
		if fullSnap.Samples < 4*sweep[len(sweep)-1] {
			t.Fatalf("%s: an uncancelled run takes %d samples, too few to cancel mid-run", store, fullSnap.Samples)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		done := ctx.Done()
		prog := NewProgress()
		JoinOne(cor, mask, c, Options{Ctx: ctx, K: k, Progress: prog})
		if s := prog.Snapshot(); !s.Done || !s.Cancelled || s.ProbesDone != progressStride-1 {
			t.Errorf("%s pre-cancelled: done=%v cancelled=%v probes=%d, want a stop at the first checkpoint (%d probes)",
				store, s.Done, s.Cancelled, s.ProbesDone, progressStride-1)
		}
		requireIdentical(t, store+" after pre-cancelled run", JoinOne(cor, mask, c, Options{K: k}), want)

		landed := 0
		for _, n := range sweep {
			ctx, cancel := context.WithCancel(context.Background())
			prog := NewProgress()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cancel()
				for {
					if s := prog.Snapshot(); s.Samples >= n || s.Done {
						return
					}
					runtime.Gosched()
				}
			}()
			JoinOne(cor, mask, c, Options{Ctx: ctx, K: k, Progress: prog})
			wg.Wait()
			if s := prog.Snapshot(); s.Cancelled {
				landed++
				if s.ProbesDone >= fullSnap.ProbesDone {
					t.Errorf("%s cancel at sample %d: %d probes, no fewer than the uncancelled %d",
						store, n, s.ProbesDone, fullSnap.ProbesDone)
				}
			}
			requireIdentical(t, fmt.Sprintf("%s after cancel at sample %d", store, n),
				JoinOne(cor, mask, c, Options{K: k}), want)
		}
		t.Logf("%s: %d of %d mid-run cancels landed before the run finished", store, landed, len(sweep))

		// A cancel that lands in the exactness flush: shortCorpus's index
		// and probe loops end before their first checkpoint, so a
		// pre-cancelled run first reads done in finish, which must stop
		// within one stride of visited pairs (each deferred pair it
		// counts is one visit).
		fcor, fres, fc := shortCorpus(t, 150)
		fmask := fres.Root.Mask
		fwant := BruteForce(fcor, fmask, fc, k, simfunc.Jaccard)
		var fullRS runStats
		requireIdentical(t, store+" flush corpus uncancelled",
			runJoin(fcor, fmask, runOpts{k: k, q: 2, m: simfunc.Jaccard, c: fc, stats: &fullRS}), fwant)
		if fullRS.n[cPrefixEvents] >= progressStride || fullRS.n[cDeferredPairs] < 2*progressStride {
			t.Fatalf("%s: flush corpus pops %d events and defers %d pairs; want under %d pops and at least %d deferred",
				store, fullRS.n[cPrefixEvents], fullRS.n[cDeferredPairs], progressStride, 2*progressStride)
		}
		var rs runStats
		runJoin(fcor, fmask, runOpts{k: k, q: 2, m: simfunc.Jaccard, c: fc, done: done, stats: &rs})
		if rs.n[cPrefixEvents] != fullRS.n[cPrefixEvents] || rs.n[cDeferredPairs] >= progressStride {
			t.Errorf("%s cancel in flush: %d events (want the full %d), %d deferred pairs visited (want under %d)",
				store, rs.n[cPrefixEvents], fullRS.n[cPrefixEvents], rs.n[cDeferredPairs], progressStride)
		}
		requireIdentical(t, store+" after cancel in flush", JoinOne(fcor, fmask, fc, Options{K: k}), fwant)
	}
}

// TestJoinAllCancelledStartsNoConfig: a JoinAll whose Ctx is done on
// entry starts no config — every list stays empty, no work is counted —
// and its Progress reports the run done and cancelled.
func TestJoinAllCancelledStartsNoConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cor, _, c := randomCorpus(t, rng, 30, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		prog := NewProgress()
		jr := JoinAll(cor, c, Options{Ctx: ctx, Workers: workers, Progress: prog})
		s := prog.Snapshot()
		if s.ConfigsStarted != 0 || !s.Done || !s.Cancelled {
			t.Errorf("workers=%d: configs started=%d done=%v cancelled=%v, want 0 started, done and cancelled",
				workers, s.ConfigsStarted, s.Done, s.Cancelled)
		}
		if len(jr.Lists) != len(cor.Res.Nodes()) {
			t.Fatalf("workers=%d: %d lists for %d configs", workers, len(jr.Lists), len(cor.Res.Nodes()))
		}
		for i, l := range jr.Lists {
			if len(l.Pairs) != 0 {
				t.Errorf("workers=%d: skipped config %d holds %d pairs", workers, i, len(l.Pairs))
			}
		}
		if jr.Stats.PrefixEvents != 0 || jr.Stats.ScratchScores != 0 {
			t.Errorf("workers=%d: skipped configs counted work: %+v", workers, jr.Stats)
		}
	}
}

// TestJoinAllCancelMidRun cancels JoinAll at Workers 2 once a second
// config has started — workers reading the done channel concurrently,
// list-reuse merges possibly in flight — and holds the next uncancelled
// JoinAll on the same probe pool to the reference lists.
func TestJoinAllCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cor, _, c := randomCorpus(t, rng, 120, 120)
	want := JoinAll(cor, c, Options{K: 50, Workers: 1})
	for rep := 0; rep < 3; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		prog := NewProgress()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			for {
				if s := prog.Snapshot(); s.ConfigsStarted >= 2 || s.Done {
					return
				}
				runtime.Gosched()
			}
		}()
		JoinAll(cor, c, Options{Ctx: ctx, K: 50, Workers: 2, Progress: prog})
		wg.Wait()
		if s := prog.Snapshot(); !s.Done {
			t.Errorf("rep %d: cancelled JoinAll returned with its run not done", rep)
		}
		got := JoinAll(cor, c, Options{K: 50, Workers: 2})
		requireIdenticalLists(t, fmt.Sprintf("rep %d after cancel", rep), got.Lists, want.Lists)
	}
}
