package ssjoin

// The config-level parallelism correctness harness: a differential
// oracle (JoinOne and JoinAll against BruteForce, byte-compared TopKLists
// over seeded corpora × {Q, K, Workers, list reuse on/off} grids), edge
// cases at the tie boundary, and a race-detector stress test driving
// concurrent config joins with live telemetry, tracing, and provenance
// attached. The underlying invariant is that every single-config join
// returns the exact top-k of D = A×B−C under the total order (score
// desc, idA, idB), whichever worker runs it and whether or not its
// parent's list seeds it.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
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
// rests on: the single-config join's list equals the brute-force exact top-k
// under the total order, bit for bit, ties at the k-th boundary included.
// (The pre-parallelism code allowed boundary ties to flip with
// scheduling; strict pruning removed that.)
func TestSerialJoinIsExactTopK(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cor, res, c := randomCorpus(t, rng, 30, 40)
		for _, k := range []int{5, 25} {
			want := BruteForce(cor, res.Root.Mask, c, k, simfunc.Jaccard)
			got := JoinOne(cor, res.Root.Mask, c, Options{K: k})
			requireIdentical(t, fmt.Sprintf("seed=%d k=%d", seed, k), got, want)
		}
	}
}

// TestJoinOneDifferentialAcrossConfigs is the single-config
// differential oracle: JoinOne's output must be bit-identical to
// BruteForce for every config of the tree over a {seed} × {K} grid.
func TestJoinOneDifferentialAcrossConfigs(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		cor, res, c := randomCorpus(t, rng, 35, 30)
		for _, mask := range res.Configs() {
			for _, k := range []int{5, 20} {
				want := BruteForce(cor, mask, c, k, simfunc.Jaccard)
				got := JoinOne(cor, mask, c, Options{K: k})
				requireIdentical(t, fmt.Sprintf("seed=%d mask=%b k=%d", seed, mask, k), got, want)
			}
		}
	}
}

// TestJoinAllDifferentialWorkerGrid is the acceptance-grade end-to-end
// differential: JoinAll's full output (every config's list) is
// byte-identical to BruteForce at Workers ∈ {1,2,3,8} on three seeds,
// with list reuse both on and off — the grid the stale "Workers: 1 for
// bit-reproducible runs" caveat used to exclude.
func TestJoinAllDifferentialWorkerGrid(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		cor, res, c := randomCorpus(t, rng, 30, 30)
		var want []TopKList
		for _, n := range res.Nodes() {
			want = append(want, BruteForce(cor, n.Mask, c, 15, simfunc.Jaccard))
		}
		for _, reuse := range []bool{false, true} {
			for _, w := range []int{1, 2, 3, 8} {
				got := JoinAll(cor, c, Options{K: 15, Workers: w, DisableListReuse: !reuse})
				requireIdenticalLists(t,
					fmt.Sprintf("seed=%d reuse=%v workers=%d", seed, reuse, w),
					got.Lists, want)
			}
		}
	}
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
// space. Each case must be bit-identical between the join at every q and
// brute force.
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
			requireIdentical(t, c.name, JoinOne(cor, mask, nil, Options{K: c.k}), want)
		})
	}
}

// TestDegenerateShardsTieBoundary pins the specific bug the old Workers
// caveat documented: when more pairs tie the k-th score than fit, the
// retained set must be the ids-smallest ones — identically in the join
// and in brute force.
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
	requireIdentical(t, "tie boundary", JoinOne(cor, mask, nil, Options{K: 6}), want)
}

// TestParallelStatsDeterministic: without the list-reuse handoff (whose
// timing moves the work counters at Workers > 1) each config's counters
// are a pure function of the config, and Stats sums them after the pool
// joins, so every Workers reproduces the Workers 1 mc_ssjoin_* stream.
func TestParallelStatsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cor, _, c := randomCorpus(t, rng, 30, 30)
	run := func(w int) Stats {
		return JoinAll(cor, c, Options{K: 10, Workers: w, DisableListReuse: true}).Stats
	}
	ref := run(1)
	if ref.PrefixEvents == 0 || ref.ScratchScores == 0 {
		t.Fatalf("reference run counted no work: %+v", ref)
	}
	for _, w := range []int{3, 3, 8} {
		if got := run(w); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: stats differ from workers=1:\n%+v\n%+v", w, got, ref)
		}
	}
}

// TestParallelRaceStress drives concurrent probes with the full
// observability stack attached — live registry, trace spans, provenance
// watches — from several JoinAll invocations at once. Its assertions are
// weak (the differential tests own correctness); its job is to give the
// race detector every cross-config interaction the production path has.
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
				K:          10,
				Workers:    3,
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

// TestListReuseHandoffSeedOrMiss pins JoinAll's list-reuse handoff
// through the list_reuse attr of each ssjoin.config span: at Workers 1
// every parent finishes before its children start, so every non-root
// config is seeded; at Workers 2 and 8 a child is seeded or runs cold
// (miss), with lists bit-identical to Workers 1; DisableListReuse sets
// the attr on no span.
func TestListReuseHandoffSeedOrMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	cor, res, c := randomCorpus(t, rng, 40, 40)
	if len(res.Nodes()) < 3 {
		t.Fatalf("config tree has %d nodes, too few to hand a list over", len(res.Nodes()))
	}
	root := res.String(res.Root.Mask)
	// run joins every config under a fresh tracer and returns the lists
	// and each config's list_reuse attr ("" when the span has none).
	run := func(w int, disable bool) ([]TopKList, map[string]string) {
		tracer := telemetry.NewTracer(telemetry.Disabled())
		sp := tracer.Start("handoff")
		got := JoinAll(cor, c, Options{K: 10, Workers: w, DisableListReuse: disable, Trace: sp})
		sp.End()
		reuse := map[string]string{}
		for _, e := range tracer.Export() {
			if e.Name == "ssjoin.config" {
				reuse[e.Attrs["config"]] = e.Attrs["list_reuse"]
			}
		}
		if len(reuse) != len(got.Lists) {
			t.Fatalf("workers=%d: %d config spans for %d configs", w, len(reuse), len(got.Lists))
		}
		return got.Lists, reuse
	}

	ref, reuse := run(1, false)
	for cfg, v := range reuse {
		want := "seed"
		if cfg == root {
			want = ""
		}
		if v != want {
			t.Errorf("workers=1 config %s: list_reuse %q, want %q", cfg, v, want)
		}
	}
	_, reuse = run(1, true)
	for cfg, v := range reuse {
		if v != "" {
			t.Errorf("DisableListReuse config %s: list_reuse %q, want none", cfg, v)
		}
	}
	for _, w := range []int{2, 8} {
		for rep := 0; rep < 5; rep++ {
			lists, reuse := run(w, false)
			requireIdenticalLists(t, fmt.Sprintf("workers=%d rep=%d", w, rep), lists, ref)
			for cfg, v := range reuse {
				if cfg == root && v != "" || cfg != root && v != "seed" && v != "miss" {
					t.Errorf("workers=%d config %s: list_reuse %q", w, cfg, v)
				}
			}
		}
	}
}
