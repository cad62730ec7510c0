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
// 12-word vocabulary, so most pairs share a word. At n = progressStride
// the index build reaches its first checkpoint.
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
// at the row loop's first checkpoint, once progressStride rows and
// posting entries have been walked, and returns a valid (short) list;
// on tables past progressStride records it stops in the index build,
// before any row.
func TestCancelStopsRun(t *testing.T) {
	cor, res, c := cancelCorpus(t)
	done := make(chan struct{})
	close(done)
	var full runStats
	runJoin(cor, res.Root.Mask, runOpts{k: 20, m: simfunc.Jaccard, c: c, stats: &full})
	rs := &runStats{}
	got := runJoin(cor, res.Root.Mask, runOpts{k: 20, m: simfunc.Jaccard, c: c, done: done, stats: rs})
	if len(got.Pairs) > 20 {
		t.Errorf("cancelled run returned %d pairs", len(got.Pairs))
	}
	if rs.n[cRows] == 0 || rs.n[cRows]+rs.n[cDeferredPairs] >= progressStride || rs.n[cRows] >= full.n[cRows] {
		t.Errorf("cancelled run walked %d rows (of %d) with %d candidates, want a stop at the first checkpoint",
			rs.n[cRows], full.n[cRows], rs.n[cDeferredPairs])
	}

	wide, wideRes, wideC := shortCorpus(t, progressStride)
	rs = &runStats{}
	got = runJoin(wide, wideRes.Root.Mask, runOpts{k: 20, m: simfunc.Jaccard, c: wideC, done: done, stats: rs})
	if len(got.Pairs) != 0 || rs.n[cRows] != 0 || rs.n[cPrefixEvents] != 0 {
		t.Errorf("run cancelled in the index build returned %d pairs after %d rows, want none",
			len(got.Pairs), rs.n[cRows])
	}
}

// TestCancelSweepPooledProbe cancels JoinOne at the first checkpoint (a
// pre-cancelled Ctx), mid-run (once the run's Progress has taken n
// samples) and inside a row (a row whose posting walks pass a
// checkpoint), and checks after every cancelled run that the next
// uncancelled JoinOne — which takes the cancelled run's pooled block
// back — is bit-identical to BruteForce: a cancelled join must leave
// its block reusable.
func TestCancelSweepPooledProbe(t *testing.T) {
	const k = 200
	sweep := []int64{1, 2, 4, 8}
	cor, res, c := cancelCorpus(t)
	mask := res.Root.Mask
	want := BruteForce(cor, mask, c, k, simfunc.Jaccard)
	full := NewProgress()
	requireIdentical(t, "uncancelled", JoinOne(cor, mask, c, Options{K: k, Progress: full}), want)
	fullSnap := full.Snapshot()
	if fullSnap.Samples < 4*sweep[len(sweep)-1] {
		t.Fatalf("an uncancelled run takes %d samples, too few to cancel mid-run", fullSnap.Samples)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := ctx.Done()
	prog := NewProgress()
	JoinOne(cor, mask, c, Options{Ctx: ctx, K: k, Progress: prog})
	if s := prog.Snapshot(); !s.Done || !s.Cancelled || s.ProbesDone == 0 || s.ProbesDone >= progressStride || s.ProbesDone >= s.ProbesTotal {
		t.Errorf("pre-cancelled: done=%v cancelled=%v rows=%d of %d, want a stop at the first checkpoint",
			s.Done, s.Cancelled, s.ProbesDone, s.ProbesTotal)
	}
	requireIdentical(t, "after pre-cancelled run", JoinOne(cor, mask, c, Options{K: k}), want)

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
				t.Errorf("cancel at sample %d: %d rows, no fewer than the uncancelled %d",
					n, s.ProbesDone, fullSnap.ProbesDone)
			}
		}
		requireIdentical(t, fmt.Sprintf("after cancel at sample %d", n),
			JoinOne(cor, mask, c, Options{K: k}), want)
	}
	t.Logf("%d of %d mid-run cancels landed before the run finished", landed, len(sweep))

	// A cancel inside a row: with 1000 identical records a side, row 0
	// walks three posting lists of 1000 entries each, so a pre-cancelled
	// run passes its first checkpoint after the second list and stops
	// with no row done and its row array dirty. The next join on the
	// block must not see that.
	rcor, rres := identicalRowsCorpus(t, 1000)
	rmask := rres.Root.Mask
	rwant := BruteForce(rcor, rmask, nil, 50, simfunc.Jaccard)
	var rs runStats
	runJoin(rcor, rmask, runOpts{k: 50, m: simfunc.Jaccard, done: done, stats: &rs})
	if rs.n[cRows] != 0 || rs.n[cPrefixEvents] != 2 {
		t.Errorf("cancel inside a row: %d rows done after %d prefix instances, want 0 rows after 2",
			rs.n[cRows], rs.n[cPrefixEvents])
	}
	requireIdentical(t, "after cancel inside a row", JoinOne(rcor, rmask, nil, Options{K: 50}), rwant)
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
