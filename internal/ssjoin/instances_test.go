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
			d.tokenize(cor, mask, 1)
			idOf := map[inst]int32{}
			instOf := map[int32]inst{}
			check := func(side string, recs []record, lists [][]int32) {
				for i := range recs {
					var want []inst
					for _, e := range recs[i].entries {
						for occ := 0; occ < bits.OnesCount16(e.mask&uint16(mask)); occ++ {
							want = append(want, inst{e.tok, occ})
						}
					}
					ids := lists[i]
					label := fmt.Sprintf("seed=%d mask=%b %s[%d]", seed, mask, side, i)
					if len(ids) != len(want) || len(ids) != recs[i].lenUnder(mask) {
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
			check("A", cor.recsA, d.a)
			check("B", cor.recsB, d.b)
		}
	}
}

// TestInstanceBufferReuseInvisible poisons one buffer with garbage ids,
// stale per-record lists and capacities far beyond any config's needs,
// then reuses it from a large config to a small one and back (the large
// corpus is big enough for the fill to run in parallel at three probe
// workers). Every run must return the fresh-buffer list and counters.
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
	garbage := func(n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = rng.Int31()
		}
		return s
	}
	poison := &denseInstances{
		n:       1 << 20,
		backing: garbage(1 << 17),
		base:    garbage(1 << 16),
		lens:    garbage(1 << 12),
		a:       make([][]int32, 900),
		b:       make([][]int32, 900),
	}
	for i := range poison.a {
		poison.a[i] = poison.backing[i : i+rng.Intn(40)]
		poison.b[i] = poison.backing[2*i : 2*i+rng.Intn(40)]
	}

	run := func(ids *denseInstances, cor *Corpus, mask config.Mask, c *blocker.PairSet, pw int) (TopKList, runStats) {
		var rs runStats
		list := runJoin(cor, mask, runOpts{
			k: 15, q: 2, m: simfunc.Jaccard, c: c,
			score:        makeScorer(cor, mask, nil, nil, simfunc.Jaccard),
			stats:        &rs,
			probeWorkers: pw,
			ids:          ids,
		})
		return list, rs
	}
	for _, pw := range []int{1, 3} {
		for _, s := range steps {
			label := fmt.Sprintf("probeworkers=%d %s", pw, s.name)
			got, gotStats := run(poison, s.cor, s.mask, s.c, pw)
			want, wantStats := run(nil, s.cor, s.mask, s.c, pw)
			requireIdentical(t, label, got, want)
			requireIdentical(t, label+" vs JoinOne", got,
				JoinOne(s.cor, s.mask, s.c, Options{K: 15, Q: 2, ProbeWorkers: pw}))
			if gotStats != wantStats {
				t.Fatalf("%s: counters diverge:\nreused: %+v\nfresh:  %+v", label, gotStats, wantStats)
			}
		}
	}
}

// TestTokenizeWarmZeroAllocs pins the serial tokenize at zero
// allocations once its buffer has grown to the corpus's largest config.
func TestTokenizeWarmZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1200))
	cor, res, _ := randomCorpus(t, rng, 300, 280)
	var d denseInstances
	for _, mask := range res.Configs() {
		d.tokenize(cor, mask, 1)
	}
	for _, mask := range res.Configs() {
		if allocs := testing.AllocsPerRun(20, func() { d.tokenize(cor, mask, 1) }); allocs != 0 {
			t.Errorf("mask=%b: warm tokenize allocated %.2f times per run, want 0", mask, allocs)
		}
	}
}

// TestEmptySideJoins joins corpora where A or B has no rows, on both
// pair stores, serially and with the parallel tokenize (the other side
// has enough records for it): every list must equal BruteForce's, which
// is empty.
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
		for _, hashed := range []bool{false, true} {
			useHashedStore(t, hashed)
			for _, pw := range []int{1, 3} {
				label := fmt.Sprintf("%s hashed=%v probeworkers=%d", side.name, hashed, pw)
				opt := Options{K: 10, Q: 2, Workers: 2, ProbeWorkers: pw}
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
	}
}
