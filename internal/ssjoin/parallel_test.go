package ssjoin

// The intra-join parallelism correctness harness: a differential oracle
// (serial reference vs. sharded-parallel runs, byte-compared TopKLists
// over seeded corpora × {Q, K, list reuse on/off} grids), metamorphic
// properties (the probe worker count and the shard count are invisible in
// the output; so is the Workers × ProbeWorkers grid end to end), and a
// race-detector stress test driving concurrent probes with live
// telemetry, tracing, and provenance attached. The underlying invariant
// is that every single-config join — serial or sharded — returns the
// exact top-k of D = A×B−C under the total order (score desc, idA, idB),
// so BruteForce doubles as a third, independent oracle.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/telemetry"
)

// requireIdentical compares two top-k lists bit for bit: same config
// mask, same pairs in the same order, and scores equal as raw float64
// bit patterns — stricter than an epsilon compare, which is the point of
// the determinism contract.
func requireIdentical(t *testing.T, label string, got, want TopKList) {
	t.Helper()
	if got.Config != want.Config {
		t.Fatalf("%s: config %b vs %b", label, got.Config, want.Config)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		g, w := got.Pairs[i], want.Pairs[i]
		if g.A != w.A || g.B != w.B || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: pair[%d] = (%d,%d,%x) want (%d,%d,%x)",
				label, i, g.A, g.B, math.Float64bits(g.Score), w.A, w.B, math.Float64bits(w.Score))
		}
	}
}

func requireIdenticalLists(t *testing.T, label string, got, want []TopKList) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lists, want %d", label, len(got), len(want))
	}
	for i := range got {
		requireIdentical(t, fmt.Sprintf("%s list=%d", label, i), got[i], want[i])
	}
}

// TestSerialJoinIsExactTopK pins the invariant the whole parallel design
// rests on: the serial join's list equals the brute-force exact top-k
// under the total order, bit for bit, ties at the k-th boundary included,
// for every q. (The pre-parallelism code allowed boundary ties to flip
// with scheduling; strict pruning removed that.)
func TestSerialJoinIsExactTopK(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cor, res, c := randomCorpus(t, rng, 30, 40)
		for _, k := range []int{5, 25} {
			want := BruteForce(cor, res.Root.Mask, c, k, simfunc.Jaccard)
			for q := 1; q <= 4; q++ {
				got := JoinOne(cor, res.Root.Mask, c, Options{K: k, Q: q})
				requireIdentical(t, fmt.Sprintf("seed=%d k=%d q=%d", seed, k, q), got, want)
			}
		}
	}
}

// TestJoinOneDifferentialAcrossProbeWorkers is the single-config
// differential oracle: the parallel join's output must be bit-identical
// to the serial reference over a {seed} × {Q} × {K} grid for every probe
// worker count in {2, 3, 8}.
func TestJoinOneDifferentialAcrossProbeWorkers(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		cor, res, c := randomCorpus(t, rng, 35, 30)
		for _, mask := range res.Configs() {
			for _, q := range []int{1, 2, 3} {
				for _, k := range []int{5, 20} {
					ref := JoinOne(cor, mask, c, Options{K: k, Q: q, ProbeWorkers: 1})
					for _, pw := range []int{2, 3, 8} {
						got := JoinOne(cor, mask, c, Options{K: k, Q: q, ProbeWorkers: pw})
						requireIdentical(t,
							fmt.Sprintf("seed=%d mask=%b q=%d k=%d pw=%d", seed, mask, q, k, pw),
							got, ref)
					}
				}
			}
		}
	}
}

// TestJoinAllDifferentialWorkerGrid is the acceptance-grade end-to-end
// differential: JoinAll's full output (every config's list) is
// byte-identical across Workers × ProbeWorkers ∈ {1,2,3,8}² on three
// seeds, with list reuse both on and off — the grid the stale
// "Workers: 1 for bit-reproducible runs" caveat used to exclude.
func TestJoinAllDifferentialWorkerGrid(t *testing.T) {
	grid := []int{1, 2, 3, 8}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		cor, _, c := randomCorpus(t, rng, 30, 30)
		for _, reuse := range []bool{false, true} {
			base := Options{K: 15, Q: 2, Workers: 1, ProbeWorkers: 1}
			base.DisableListReuse = !reuse
			ref := JoinAll(cor, c, base)
			for _, w := range grid {
				for _, pw := range grid {
					opt := base
					opt.Workers, opt.ProbeWorkers = w, pw
					got := JoinAll(cor, c, opt)
					requireIdenticalLists(t,
						fmt.Sprintf("seed=%d reuse=%v workers=%d probeworkers=%d", seed, reuse, w, pw),
						got.Lists, ref.Lists)
				}
			}
		}
	}
}

// TestShardCountInvisible is the metamorphic property on the shard count
// itself, decoupled from the worker pool: overriding probeShards to any
// value — more shards than workers, more shards than records, a prime
// count — must not change a single output bit, whether the shards run
// serially (probeWorkers=1) or concurrently.
func TestShardCountInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cor, res, c := randomCorpus(t, rng, 25, 30)
	mask := res.Root.Mask
	run := func(workers, shards int) TopKList {
		rs := &runStats{}
		return runJoin(cor, mask, runOpts{
			k: 12, q: 2, m: simfunc.Jaccard, c: c,
			stats:        rs,
			probeWorkers: workers,
			probeShards:  shards,
		})
	}
	ref := run(1, 1)
	for _, workers := range []int{1, 3} {
		for _, shards := range []int{2, 3, 5, 8, 64} {
			got := run(workers, shards)
			requireIdentical(t, fmt.Sprintf("workers=%d shards=%d", workers, shards), got, ref)
		}
	}
}

// TestShardSeedHandoffInvisible extends the differential to the
// list-reuse handoff: a sharded join given parent seeds, or a late
// parent list on the merge channel, returns the same bits as the unfed
// serial join.
func TestShardSeedHandoffInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cor, res, c := randomCorpus(t, rng, 25, 25)
	mask := res.Root.Mask
	parent := BruteForce(cor, mask, c, 10, simfunc.Jaccard)
	ref := JoinOne(cor, mask, c, Options{K: 10, Q: 2})

	run := func(seeds []ScoredPair, mergeCh <-chan []ScoredPair, shards int) TopKList {
		rs := &runStats{}
		return runJoin(cor, mask, runOpts{
			k: 10, q: 2, m: simfunc.Jaccard, c: c,
			stats:        rs,
			seeds:        seeds,
			mergeCh:      mergeCh,
			probeWorkers: 3,
			probeShards:  shards,
		})
	}
	requireIdentical(t, "seeded", run(parent.Pairs, nil, 3), ref)
	ch := make(chan []ScoredPair, 1)
	ch <- parent.Pairs
	requireIdentical(t, "merge-channel", run(nil, ch, 4), ref)
}

// degenerate corpora for the edge table below.
func identicalRowsCorpus(t *testing.T, n int) (*Corpus, *config.Result) {
	t.Helper()
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{"alpha beta gamma"}
	}
	return corpusFor(t, []string{"v"}, rows, rows)
}

// TestDegenerateShards is the table-driven edge suite: empty probe side,
// fewer records than workers, all-identical scores (every retained pair
// ties, so the whole list is boundary), and k larger than the candidate
// space. Each case must be bit-identical between the serial join, the
// sharded join at several worker counts, and brute force.
func TestDegenerateShards(t *testing.T) {
	type tc struct {
		name  string
		build func(t *testing.T) (*Corpus, *config.Result)
		k     int
	}
	cases := []tc{
		{
			name: "empty probe side",
			build: func(t *testing.T) (*Corpus, *config.Result) {
				// Every B tuple tokenizes to nothing: the B side seeds no
				// events and no pair can score above zero.
				return corpusFor(t, []string{"v"},
					[][]string{{"a b"}, {"c d"}, {"e f"}},
					[][]string{{""}, {""}})
			},
			k: 5,
		},
		{
			name: "fewer records than workers",
			build: func(t *testing.T) (*Corpus, *config.Result) {
				return corpusFor(t, []string{"v"},
					[][]string{{"a b c"}, {"b c d"}},
					[][]string{{"a c"}, {"b d"}, {"c d e"}})
			},
			k: 4,
		},
		{
			name: "all-identical scores",
			build: func(t *testing.T) (*Corpus, *config.Result) {
				cor, res := identicalRowsCorpus(t, 6)
				return cor, res
			},
			k: 7, // 36 candidate pairs, all scoring exactly 1.0
		},
		{
			name: "k larger than candidates",
			build: func(t *testing.T) (*Corpus, *config.Result) {
				return corpusFor(t, []string{"v"},
					[][]string{{"a b"}, {"x y"}},
					[][]string{{"a b"}, {"p q"}})
			},
			k: 100,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cor, res := c.build(t)
			mask := res.Root.Mask
			want := BruteForce(cor, mask, nil, c.k, simfunc.Jaccard)
			for _, q := range []int{1, 2} {
				serial := JoinOne(cor, mask, nil, Options{K: c.k, Q: q, ProbeWorkers: 1})
				requireIdentical(t, fmt.Sprintf("serial vs brute force q=%d", q), serial, want)
				for _, pw := range []int{2, 8} {
					got := JoinOne(cor, mask, nil, Options{K: c.k, Q: q, ProbeWorkers: pw})
					requireIdentical(t, fmt.Sprintf("pw=%d q=%d", pw, q), got, serial)
				}
			}
		})
	}
}

// TestDegenerateShardsTieBoundary pins the specific bug the old Workers
// caveat documented: when more pairs tie the k-th score than fit, the
// retained set must be the ids-smallest ones — identically in the serial
// join, the sharded join, and brute force.
func TestDegenerateShardsTieBoundary(t *testing.T) {
	cor, res := identicalRowsCorpus(t, 5) // 25 pairs, every score exactly 1.0
	mask := res.Root.Mask
	want := BruteForce(cor, mask, nil, 6, simfunc.Jaccard)
	if len(want.Pairs) != 6 {
		t.Fatalf("brute force returned %d pairs", len(want.Pairs))
	}
	for i, p := range want.Pairs {
		// Total order at a full tie is (idA, idB) ascending.
		if int(p.A) != i/5 || int(p.B) != i%5 {
			t.Fatalf("brute-force tie order broken at %d: %+v", i, p)
		}
	}
	for _, pw := range []int{1, 2, 5, 8} {
		got := JoinOne(cor, mask, nil, Options{K: 6, Q: 2, ProbeWorkers: pw})
		requireIdentical(t, fmt.Sprintf("pw=%d", pw), got, want)
	}
}

// TestParallelStatsDeterministic: for a fixed shard count the folded
// telemetry counters are deterministic too (shard stats fold in index
// order), so reruns reproduce the same mc_ssjoin_* stream.
func TestParallelStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cor, _, c := randomCorpus(t, rng, 30, 30)
	run := func() Stats {
		return JoinAll(cor, c, Options{K: 10, Q: 2, Workers: 3, ProbeWorkers: 4}).Stats
	}
	s1, s2 := run(), run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if s1.ProbeShards == 0 {
		t.Error("expected sharded probes to report ProbeShards > 0")
	}
	if s1.ShardMergePairs == 0 {
		t.Error("expected shard merges to offer pairs")
	}
}

// TestParallelRaceStress drives concurrent probes with the full
// observability stack attached — live registry, trace spans, provenance
// watches — from several JoinAll invocations at once. Its assertions are
// weak (the differential tests own correctness); its job is to give the
// race detector every cross-shard interaction the production path has.
func TestParallelRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	cor, _, c := randomCorpus(t, rng, 30, 30)
	reg := telemetry.New()
	tracer := telemetry.NewTracer(reg)
	var wg sync.WaitGroup
	results := make([]*JoinResult, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prov := telemetry.NewProvenance([2]int{0, 0}, [2]int{1, 2}, [2]int{3, 1})
			root := tracer.Start("stress.joinall")
			results[i] = JoinAll(cor, c, Options{
				K: 10, Q: 2,
				Workers: 3, ProbeWorkers: 4,
				Metrics:    reg,
				Trace:      root,
				Provenance: prov,
			})
			root.End()
		}(i)
	}
	wg.Wait()
	for i := 1; i < 4; i++ {
		requireIdenticalLists(t, fmt.Sprintf("run %d vs 0", i), results[i].Lists, results[0].Lists)
	}
	if reg.Snapshot() == nil {
		t.Fatal("registry snapshot unavailable after stress")
	}
}

// TestMergeTopKAgainstSerialInsert is the deterministic unit companion
// to FuzzMergeTopK: partition a pair set by A-record, build per-shard
// heaps, and check the merge equals serial insertion — including a block
// of exact score ties straddling the boundary.
func TestMergeTopKAgainstSerialInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	var pairs []ScoredPair
	for a := int32(0); a < 12; a++ {
		for b := int32(0); b < 9; b++ {
			// Rational scores with tiny denominators force exact ties.
			pairs = append(pairs, ScoredPair{A: a, B: b, Score: float64(rng.Intn(5)) / 4})
		}
	}
	for _, k := range []int{1, 7, 30, 200} {
		for _, shards := range []int{1, 2, 3, 5} {
			serial := newTopkHeap(k)
			for _, p := range pairs {
				serial.offer(p)
			}
			lists := make([][]ScoredPair, shards)
			for s := 0; s < shards; s++ {
				h := newTopkHeap(k)
				for _, p := range pairs {
					if int(p.A)%shards == s {
						h.offer(p)
					}
				}
				lists[s] = h.items
			}
			merged := mergeTopK(k, lists...)
			requireIdentical(t, fmt.Sprintf("k=%d shards=%d", k, shards),
				merged.list(0), serial.list(0))
		}
	}
}

// TestTokenizeInstancesParallelIdentical: the parallel tokenizer is a
// pure fan-out; its output must match the inline path slot for slot.
func TestTokenizeInstancesParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cor, res, _ := randomCorpus(t, rng, 300, 280)
	for _, mask := range res.Configs() {
		var ref denseInstances
		ref.tokenize(cor, mask, 1)
		for _, workers := range []int{2, 4, 7} {
			var got denseInstances
			got.tokenize(cor, mask, workers)
			if got.n != ref.n || !reflect.DeepEqual(ref.a, got.a) || !reflect.DeepEqual(ref.b, got.b) {
				t.Fatalf("mask=%b workers=%d: tokenize output differs", mask, workers)
			}
		}
	}
}

// TestJoinAllCancelSafety: a cancelled sharded run must return promptly
// and without panic (the q-race path), even with many shards in flight.
func TestShardedCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cor, res, c := randomCorpus(t, rng, 40, 40)
	var cancel atomic.Bool
	cancel.Store(true)
	rs := &runStats{}
	got := runJoin(cor, res.Root.Mask, runOpts{
		k: 20, q: 2, m: simfunc.Jaccard, c: c,
		stats:        rs,
		cancel:       &cancel,
		probeWorkers: 4,
	})
	if len(got.Pairs) > 20 {
		t.Errorf("cancelled sharded run returned %d pairs", len(got.Pairs))
	}
}
