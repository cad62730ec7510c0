package ssjoin

// Tests of the dense instance-id numbering (denseInstances): the ids
// themselves, the reusable buffer, and joins whose corpus has an empty
// side.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
)

// TestDenseIDs checks the numbering on random corpora under every config
// mask, through one reused buffer: every id lies in [0, n), two
// instances share an id exactly when they are the same (token rank,
// occurrence), and each record's ids strictly ascend.
func TestDenseIDs(t *testing.T) {
	type inst struct {
		tok int32
		occ int
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cor, res, _ := randomCorpus(t, rng, 40, 35)
		var d denseInstances
		for _, mask := range res.Configs() {
			d.tokenize(cor, mask)
			idOf := map[inst]int32{}
			instOf := map[int32]inst{}
			check := func(side string, s *csr, lists [][]int32) {
				for i := range s.rows() {
					var want []inst
					for _, e := range s.rec(i).entries {
						for occ := 0; occ < bits.OnesCount16(e.mask&uint16(mask)); occ++ {
							want = append(want, inst{e.tok, occ})
						}
					}
					ids := lists[i]
					label := fmt.Sprintf("seed=%d mask=%b %s[%d]", seed, mask, side, i)
					if len(ids) != len(want) || len(ids) != s.rec(i).lenUnder(mask) {
						t.Fatalf("%s: %d ids, want %d instances", label, len(ids), len(want))
					}
					for j, id := range ids {
						if id < 0 || int(id) >= d.n {
							t.Fatalf("%s: id %d outside [0, %d)", label, id, d.n)
						}
						if j > 0 && id <= ids[j-1] {
							t.Fatalf("%s: ids not strictly ascending: %v", label, ids)
						}
						if prev, ok := idOf[want[j]]; ok && prev != id {
							t.Fatalf("%s: instance %+v has ids %d and %d", label, want[j], prev, id)
						}
						if prev, ok := instOf[id]; ok && prev != want[j] {
							t.Fatalf("%s: id %d names %+v and %+v", label, id, prev, want[j])
						}
						idOf[want[j]] = id
						instOf[id] = want[j]
					}
				}
			}
			check("A", &cor.a, d.a)
			check("B", &cor.b, d.b)
		}
	}
}

// TestInstanceBufferReuseInvisible poisons one probe block's instance
// ids (garbage ids, stale per-record lists, capacities far beyond any
// config's needs) and its top-k heap storage (stale items past len and a
// stale k), then reuses the block from a large config to a small one and
// back. Every run must return the fresh-block list and counters.
func TestInstanceBufferReuseInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(1100))
	big, bigRes, bigC := randomCorpus(t, rng, 300, 280)
	small, smallRes, smallC := randomCorpus(t, rng, 20, 15)
	leaf := func(res *config.Result) config.Mask {
		cs := res.Configs()
		return cs[len(cs)-1]
	}
	steps := []struct {
		name string
		cor  *Corpus
		mask config.Mask
		c    *blocker.PairSet
	}{
		{"large root", big, bigRes.Root.Mask, bigC},
		{"small leaf", small, leaf(smallRes), smallC},
		{"large leaf", big, leaf(bigRes), bigC},
		{"small root", small, smallRes.Root.Mask, smallC},
		{"large root again", big, bigRes.Root.Mask, bigC},
	}

	// Each field owns its array, as grow leaves them; the per-record
	// lists point into the old backing.
	poison := &rowProbe{ids: denseInstances{
		n:       1 << 20,
		backing: garbageIDs(rng, 1<<17),
		base:    garbageIDs(rng, 1<<16),
		lens:    garbageIDs(rng, 1<<12),
		a:       make([][]int32, 900),
		b:       make([][]int32, 900),
	}}
	for i := range poison.ids.a {
		poison.ids.a[i] = poison.ids.backing[i : i+rng.Intn(40)]
		poison.ids.b[i] = poison.ids.backing[2*i : 2*i+rng.Intn(40)]
	}
	poisonHeap := func() {
		items := make([]ScoredPair, 64)
		for i := range items {
			items[i] = ScoredPair{A: rng.Int31n(20), B: rng.Int31n(15), Score: 2}
		}
		poison.top = topkHeap{k: 3, items: items[:rng.Intn(len(items))]}
	}

	run := func(p *rowProbe, cor *Corpus, mask config.Mask, c *blocker.PairSet) (TopKList, runStats) {
		var rs runStats
		list := p.join(cor, mask, runOpts{
			k: 15, m: simfunc.Jaccard, c: c,
			stats: &rs,
		})
		p.release()
		return list, rs
	}
	for _, s := range steps {
		poisonHeap()
		got, gotStats := run(poison, s.cor, s.mask, s.c)
		want, wantStats := run(&rowProbe{}, s.cor, s.mask, s.c)
		requireIdentical(t, s.name, got, want)
		requireIdentical(t, s.name+" vs JoinOne", got,
			JoinOne(s.cor, s.mask, s.c, Options{K: 15}))
		if gotStats != wantStats {
			t.Fatalf("%s: counters diverge:\nreused: %+v\nfresh:  %+v", s.name, gotStats, wantStats)
		}
	}
}

// garbageIDs returns n random ids, to poison reused buffers with.
func garbageIDs(rng *rand.Rand, n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = rng.Int31()
	}
	return s
}

// TestTokenizeWarmZeroAllocs pins tokenize at zero
// allocations once its buffer has grown to the corpus's largest config.
func TestTokenizeWarmZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1200))
	cor, res, _ := randomCorpus(t, rng, 300, 280)
	var d denseInstances
	for _, mask := range res.Configs() {
		d.tokenize(cor, mask)
	}
	for _, mask := range res.Configs() {
		if allocs := testing.AllocsPerRun(20, func() { d.tokenize(cor, mask) }); allocs != 0 {
			t.Errorf("mask=%b: warm tokenize allocated %.2f times per run, want 0", mask, allocs)
		}
	}
}

// TestEmptySideJoins joins corpora where A or B has no rows, through
// JoinOne and JoinAll: every list must equal BruteForce's, which is
// empty.
func TestEmptySideJoins(t *testing.T) {
	attrs := []string{"v"}
	rng := rand.New(rand.NewSource(1300))
	words := []string{"ka", "ri", "ton", "mel", "sor", "vin"}
	full := table.MustNew("T", attrs)
	for i := 0; i < 600; i++ {
		var ws []string
		for j := 0; j <= rng.Intn(4); j++ {
			ws = append(ws, words[rng.Intn(len(words))])
		}
		full.MustAppend([]string{strings.Join(ws, " ")})
	}
	// The config generator wants rows on both sides, so the config comes
	// from the full table against itself.
	res, err := config.Generate(full, full, config.Options{})
	if err != nil {
		t.Fatal(err)
	}
	empty := table.MustNew("E", attrs)
	for _, side := range []struct {
		name string
		cor  *Corpus
	}{
		{"empty A", NewCorpus(empty, full, res)},
		{"empty B", NewCorpus(full, empty, res)},
	} {
		label := side.name
		opt := Options{K: 10, Workers: 2}
		for _, mask := range res.Configs() {
			want := BruteForce(side.cor, mask, nil, 10, simfunc.Jaccard)
			requireIdentical(t, label+" JoinOne", JoinOne(side.cor, mask, nil, opt), want)
		}
		all := JoinAll(side.cor, nil, opt)
		for i, n := range res.Nodes() {
			want := BruteForce(side.cor, n.Mask, nil, 10, simfunc.Jaccard)
			requireIdentical(t, fmt.Sprintf("%s JoinAll list=%d", label, i), all.Lists[i], want)
		}
	}
}
