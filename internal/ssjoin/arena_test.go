package ssjoin

// White-box and differential harness of the row-local kernel: poisoned
// pool reuse, the zero-alloc row path, the strict pair filters and the
// row-end bound, each checked against BruteForce (no filters, no
// bounds) as the oracle.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/simfunc"
)

// pairKey packs a pair into one map key.
func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

// TestPoolReusePoisonInvisible proves pooled block reuse cannot leak
// state between joins: the pool is pre-seeded with blocks whose buffers
// hold adversarial garbage — a dirty row array and candidate list,
// stale marks past their cursor, prefix-end caches stamped at the
// current generation, a stale index and threshold, stale top-k heaps
// (items past len included, scored above any real pair) and stale
// instance ids — and joins through that pool must still match the
// reference bit for bit, counters included.
func TestPoolReusePoisonInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	cor, _, c := randomCorpus(t, rng, 30, 30)
	opt := Options{K: 10, Workers: 1}
	ref := JoinAll(cor, c, opt)

	for trial := 0; trial < 4; trial++ {
		for i := 0; i < 3; i++ {
			p := &rowProbe{}
			p.row = garbageIDs(rng, 64)
			p.cands = garbageIDs(rng, 20)
			p.marks = make([]ScoredPair, 12)
			for j := range p.marks {
				p.marks[j] = ScoredPair{A: rng.Int31n(30), B: rng.Int31n(30), Score: 3}
			}
			p.markAt = rng.Intn(len(p.marks))
			p.prefEnd = garbageIDs(rng, 200)
			p.gen = uint32(rng.Intn(5))
			p.prefGen = make([]uint32, 200)
			for j := range p.prefGen {
				p.prefGen[j] = p.gen
			}
			p.t = rng.Float64()
			p.off = garbageIDs(rng, 1000)
			p.post = make([]postEntry, 500)
			for j := range p.post {
				p.post[j] = postEntry{cap: 2, b: rng.Int31n(30), pos: rng.Int31n(8)}
			}
			p.steps, p.nextCheck = 1<<20, 1
			stale := make([]ScoredPair, 32)
			for j := range stale {
				stale[j] = ScoredPair{A: rng.Int31n(30), B: rng.Int31n(30), Score: 2}
			}
			p.top = topkHeap{k: 1 + rng.Intn(4), items: stale[:rng.Intn(len(stale))]}
			// Stale ids: each field owns its array, as grow leaves them,
			// and the per-record lists point into the old backing.
			p.ids.backing, p.ids.base, p.ids.lens = garbageIDs(rng, 4096), garbageIDs(rng, 3000), garbageIDs(rng, 100)
			p.ids.n = 1 << 16
			p.ids.a = [][]int32{p.ids.backing[:40], p.ids.backing[40:90]}
			p.ids.b = [][]int32{p.ids.backing[90:100]}
			p.ids.lists = [][]int32{p.ids.backing[7:70]}
			putRowProbe(p)
		}
		for step := 0; step < 4; step++ {
			got := JoinAll(cor, c, opt)
			label := fmt.Sprintf("poisoned pool trial %d step %d", trial, step)
			requireIdenticalLists(t, label, got.Lists, ref.Lists)
			if !reflect.DeepEqual(got.Stats, ref.Stats) {
				t.Fatalf("%s: counters diverge:\ngot:  %+v\nwant: %+v", label, got.Stats, ref.Stats)
			}
		}
	}
}

// TestRowPermutationMetamorphic: permuting the rows of both tables
// permutes record ids but cannot change the retained score multiset
// (the top-k boundary may swap which equal-scoring pairs it keeps — ids
// break those ties — so the pair sets are compared only above the
// boundary, via the score multiset invariant plus the permutation map
// on strictly-retained pairs).
func TestRowPermutationMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	words := []string{"ka", "ri", "ton", "mel", "sor", "vin", "da", "lo"}
	row := func() []string {
		n := 1 + rng.Intn(5)
		var s string
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return []string{s}
	}
	var rowsA, rowsB [][]string
	for i := 0; i < 25; i++ {
		rowsA = append(rowsA, row())
	}
	for i := 0; i < 25; i++ {
		rowsB = append(rowsB, row())
	}
	cor, res := corpusFor(t, []string{"v"}, rowsA, rowsB)
	mask := res.Root.Mask
	const k = 10
	ref := JoinOne(cor, mask, nil, Options{K: k})

	for trial := 0; trial < 3; trial++ {
		permA := rng.Perm(len(rowsA))
		permB := rng.Perm(len(rowsB))
		pRowsA := make([][]string, len(rowsA))
		pRowsB := make([][]string, len(rowsB))
		for i, j := range permA {
			pRowsA[j] = rowsA[i]
		}
		for i, j := range permB {
			pRowsB[j] = rowsB[i]
		}
		pCor, pRes := corpusFor(t, []string{"v"}, pRowsA, pRowsB)
		got := JoinOne(pCor, pRes.Root.Mask, nil, Options{K: k})

		refScores, gotScores := scoresOf(ref), scoresOf(got)
		slices.Sort(refScores)
		slices.Sort(gotScores)
		if !reflect.DeepEqual(refScores, gotScores) {
			t.Fatalf("trial %d: score multiset changed under row permutation:\n%v\n%v",
				trial, refScores, gotScores)
		}
		// Strictly above the boundary the retained pairs are unique, so
		// they must map exactly through the permutation.
		boundary := ref.Pairs[len(ref.Pairs)-1].Score
		want := map[int64]bool{}
		for _, p := range ref.Pairs {
			if p.Score > boundary {
				want[pairKey(int32(permA[p.A]), int32(permB[p.B]))] = true
			}
		}
		for _, p := range got.Pairs {
			if p.Score > boundary && !want[pairKey(p.A, p.B)] {
				t.Fatalf("trial %d: pair (%d,%d) above the tie boundary has no preimage", trial, p.A, p.B)
			}
		}
	}
}

// TestFilterKillsStrictlyBelowKth is the filter property test: every
// pair killed by a strict pair filter must (a) score strictly below the
// final k-th score — the kill compared against a running k-th bound
// that only rises, so a violation here means a filter was not strict —
// and (b) never appear in the final list. Scores come from the
// brute-force oracle over the full pair space.
func TestFilterKillsStrictlyBelowKth(t *testing.T) {
	type kill struct {
		a, b int32
		tier int8
	}
	var kills []kill
	filterKillHook = func(a, b int32, tier int8) {
		kills = append(kills, kill{a, b, tier})
	}
	t.Cleanup(func() { filterKillHook = nil })

	tierTotals := map[int8]int{}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		cor, res, c := randomCorpus(t, rng, 35, 35)
		for _, mask := range res.Configs() {
			for _, k := range []int{3, 8} {
				kills = kills[:0]
				got := JoinOne(cor, mask, c, Options{K: k})
				if len(got.Pairs) < k || len(kills) == 0 {
					continue
				}
				kth := got.Pairs[k-1].Score
				all := BruteForce(cor, mask, c, 1<<20, simfunc.Jaccard)
				scores := make(map[int64]float64, len(all.Pairs))
				for _, p := range all.Pairs {
					scores[pairKey(p.A, p.B)] = p.Score
				}
				retained := make(map[int64]bool, len(got.Pairs))
				for _, p := range got.Pairs {
					retained[pairKey(p.A, p.B)] = true
				}
				for _, kl := range kills {
					tierTotals[kl.tier]++
					if retained[pairKey(kl.a, kl.b)] {
						t.Fatalf("seed=%d mask=%b k=%d: killed pair (%d,%d) retained",
							seed, mask, k, kl.a, kl.b)
					}
					// Absent from the brute list means the exact score is 0.
					if s := scores[pairKey(kl.a, kl.b)]; s >= kth {
						t.Fatalf("seed=%d mask=%b k=%d tier=%d: killed pair (%d,%d) scores %v >= kth %v",
							seed, mask, k, kl.tier, kl.a, kl.b, s, kth)
					}
				}
			}
		}
	}
	if tierTotals[tierLengthFilter] == 0 {
		t.Error("length filter never fired across the property grid")
	}
	if tierTotals[tierPrefixPos] == 0 {
		t.Error("positional prefix filter never fired across the property grid")
	}
}

// TestPrefixFilterKillsCraftedPair pins the positional filter on a
// constructed corpus where the only shared token of a long pair sits at
// the tail of both prefix orders: the pair must be killed by the
// prefix_pos tier specifically (the length filter cannot — the records
// have equal lengths, so the length bound is 1.0).
func TestPrefixFilterKillsCraftedPair(t *testing.T) {
	var tiers []int8
	filterKillHook = func(a, b int32, tier int8) { tiers = append(tiers, tier) }
	t.Cleanup(func() { filterKillHook = nil })

	// Pair (A0, B0) scores 2/4 = 0.5 and fills the k=1 list in row 0. A1
	// and B1 (12 tokens each) share cc plus the f-fillers; their rank
	// orders put six unique tokens (rarer than cc) first, then cc at
	// position 6 — cap exactly (12-6)/12 = 0.5, which survives the strict
	// prefix cut as a tie — then the f-fillers (more frequent, so
	// prefix-later; their caps fall below 0.5, so row 1 stops before
	// them). At the touch, the length bound is FromOverlap(12,12,12) = 1.0
	// (equal lengths — the length filter cannot fire), but the positional
	// bound is FromOverlap(1+min(5,5),12,12) = 6/18 < 0.5: only the
	// prefix_pos tier can kill it.
	cor, res := corpusFor(t, []string{"v"},
		[][]string{
			{"m n"},
			{"g1 g2 g3 g4 g5 g6 cc f1 f2 f3 f4 f5"},
			{"f1 f2 f3 f4 f5"},
			{"f1 f2 f3 f4 f5"},
		},
		[][]string{
			{"o p m n"},
			{"h1 h2 h3 h4 h5 h6 cc f1 f2 f3 f4 f5"},
		})
	got := JoinOne(cor, res.Root.Mask, nil, Options{K: 1})
	if len(got.Pairs) != 1 || got.Pairs[0].A != 0 || got.Pairs[0].B != 0 || got.Pairs[0].Score != 0.5 {
		t.Fatalf("expected (A0,B0)=0.5 to win: %+v", got.Pairs)
	}
	if !slices.Contains(tiers, tierPrefixPos) {
		t.Errorf("positional prefix filter did not fire; tiers seen: %v", tiers)
	}
	want := BruteForce(cor, res.Root.Mask, nil, 1, simfunc.Jaccard)
	requireIdentical(t, "crafted corpus vs brute force", got, want)
}

// TestFlatProbePathZeroAllocs pins the kernel's allocation contract
// dynamically: with warm pooled buffers, the whole join after tokenize
// — wire, seed absorb, index, row loop — allocates nothing, unseeded
// and seeded. (The static half is mclint's hotalloc/-escapes gate;
// testing.AllocsPerRun catches what escape analysis can't, e.g.
// amortized append growth would show up here as a fractional count.)
func TestFlatProbePathZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	cor, res, c := randomCorpus(t, rng, 40, 40)
	mask := res.Root.Mask
	seeds := BruteForce(cor, mask, c, 20, simfunc.Jaccard).Pairs[:10]

	for _, seeded := range []bool{false, true} {
		opt := runOpts{k: 10, m: simfunc.Jaccard, c: c, stats: &runStats{}}
		if seeded {
			opt.seeds = seeds
		}
		p := &rowProbe{}
		p.ids.tokenize(cor, mask)
		run := func() {
			p.wire(cor, mask, opt)
			p.absorb(opt.seeds)
			p.raise()
			p.index()
			p.probe()
		}
		run() // warm the buffers (growth is allowed to allocate)
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("seeded=%v: warm row path allocated %.2f times per run, want 0", seeded, allocs)
		}
		if p.top.Len() == 0 || opt.stats.n[cFlushedPairs] == 0 {
			t.Fatalf("seeded=%v: the join scored nothing — the zero-alloc run measured nothing", seeded)
		}
	}
}

// FuzzPrefixFilter feeds arbitrary corpora through the kernel (filters
// and row-end bound live) against BruteForce (neither), under the
// measure the fuzz bytes pick: any input where the length or positional
// prefix filter, the suppression check or the row-end bound drops a
// pair that belonged in the top-k — tie boundaries, equal scores,
// degenerate records — shows up as a list mismatch. The fuzz bytes also
// pick a C set (so filters and suppression meet on the same pairs), and
// every config of the two-attribute tables is joined, child masks
// included, unseeded and seeded with a prefix of the config's 2k list.
// Registered in the Makefile fuzz-smoke target.
func FuzzPrefixFilter(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), []byte("abc\ndef g\nhij"))
	f.Add(uint8(3), uint8(1), uint8(1), []byte("a b c d e f g h i\nz\na b\nq r s"))
	f.Add(uint8(2), uint8(3), uint8(2), []byte("aa bb\naa bb\naa bb\ncc"))
	f.Add(uint8(1), uint8(1), uint8(3), []byte("\n\n\n"))
	f.Add(uint8(12), uint8(9), uint8(1), []byte("a b c|d e\na b|c d e f\nb c|d\na c|e f g\nb d e|f"))
	f.Add(uint8(21), uint8(30), uint8(2), []byte("a b c d|e f\nc d e|f g\na b|c\nb c d e|f\nd e f|a b\na|b c"))
	f.Fuzz(func(t *testing.T, kRaw, sel, mRaw uint8, data []byte) {
		k := int(kRaw%8) + 1
		m := simfunc.SetMeasure(mRaw % 4)
		rows := decodeFuzzRows(data)
		if len(rows) < 2 {
			return
		}
		half := len(rows) / 2
		cor, res, err := buildCorpus([]string{"v", "w"}, rows[:half], rows[half:])
		if err != nil {
			return // no config to join: the generator rejected the tables
		}
		c := fuzzPairSet(sel/4, half, len(rows)-half)
		for _, mask := range res.Configs() {
			want := BruteForce(cor, mask, c, k, m)
			label := fmt.Sprintf("mask=%b m=%v k=%d", mask, m, k)
			requireIdentical(t, label, runJoin(cor, mask, runOpts{k: k, m: m, c: c}), want)
			seeds := BruteForce(cor, mask, c, 2*k, m).Pairs
			seeds = seeds[:len(seeds)*int(sel%4)/4]
			requireIdentical(t, label+" seeded", runJoin(cor, mask, runOpts{k: k, m: m, c: c, seeds: seeds}), want)
		}
	})
}

// decodeFuzzRows turns raw fuzz bytes into two-attribute rows:
// newline-separated lines, each split at its first '|' into the two
// values, over a compressed alphabet (tokens collide constantly, which
// is where the filters and tie-breaks live).
func decodeFuzzRows(data []byte) [][]string {
	var rows [][]string
	var cur []byte
	split := -1
	flush := func() {
		if len(rows) < 16 {
			v, w := string(cur), ""
			if split >= 0 {
				v, w = string(cur[:split]), string(cur[split:])
			}
			rows = append(rows, []string{v, w})
		}
		cur, split = cur[:0], -1
	}
	for _, b := range data {
		switch {
		case b == '\n':
			flush()
		case b == '|' && split < 0:
			split = len(cur)
		case b == ' ' || b == '|':
			cur = append(cur, ' ')
		default:
			cur = append(cur, 'a'+b%7)
		}
		if len(cur) > 64 {
			flush()
		}
	}
	flush()
	return rows
}

// fuzzPairSet picks a blocker output C over an nA×nB pair space from a
// fuzz byte: nil for 0, else every pair on a sel-dependent residue
// class, from half the pairs to a fifth of them.
func fuzzPairSet(sel uint8, nA, nB int) *blocker.PairSet {
	if sel == 0 {
		return nil
	}
	c := blocker.NewPairSet()
	mod := int(sel%4) + 2
	for a := 0; a < nA; a++ {
		for b := 0; b < nB; b++ {
			if (3*a+5*b+int(sel/4))%mod == 0 {
				c.Add(a, b)
			}
		}
	}
	return c
}

// TestFlushBoundSound white-boxes the row-end bound (the flush_bound
// tier): at the end of every row, each live candidate must satisfy
//
//	overlap <= min(c + len(lag), lx, ly) <= min(c + (lx-pa) + (ly-pb), lx, ly)
//
// — sound against the exact overlap, and never looser than the
// two-suffix bound — and the overlap completed from the lagging suffix
// must equal the exact one, across corpora, configs and k. The grid must also
// reach candidates where the lagging-side bound is strictly tighter, or
// it would prove nothing about it.
func TestFlushBoundSound(t *testing.T) {
	checked, tighter := 0, 0
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(950 + seed))
		cor, res, c := randomCorpus(t, rng, 30, 26)
		for _, mask := range res.Configs() {
			for _, k := range []int{1, 3, 6} {
				p := &rowProbe{}
				p.ids.tokenize(cor, mask)
				p.wire(cor, mask, runOpts{k: k, m: simfunc.Jaccard, c: c, stats: &runStats{}})
				p.index()
				for a := int32(0); a < int32(len(p.ids.a)); a++ {
					p.raise()
					pa, _ := p.runRow(a)
					for _, b := range p.cands {
						cnt := p.row[b]
						if cnt <= 0 {
							continue
						}
						lx, ly := len(p.ids.a[a]), len(p.ids.b[b])
						old := min(int(cnt)+lx-pa+ly-p.visible(ly), lx, ly)
						lag, other := p.lagging(a, b, pa)
						bound := min(int(cnt)+len(lag), lx, ly)
						exact := overlapUnder(cor.a.rec(int(a)), cor.b.rec(int(b)), mask)
						if exact > bound || bound > old || overlap(cnt, lag, other) != exact {
							t.Fatalf("seed=%d mask=%b k=%d pair (%d,%d) c=%d: overlap %d (completed %d), bound %d, two-suffix bound %d",
								seed, mask, k, a, b, cnt, exact, overlap(cnt, lag, other), bound, old)
						}
						checked++
						if bound < old {
							tighter++
						}
					}
					p.endRow(a, pa)
				}
			}
		}
	}
	if checked == 0 || tighter == 0 {
		t.Fatalf("grid checked %d candidates, %d with a tighter bound: it proves nothing", checked, tighter)
	}
	t.Logf("%d row-end candidates checked, %d with a strictly tighter bound", checked, tighter)
}

// sink guards against dead-code elimination in benchmarks below.
var sinkList TopKList

// BenchmarkJoinOneKernel times one root-config join on a corpus of
// short, heavily overlapping records.
func BenchmarkJoinOneKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"ka", "ri", "ton", "mel", "sor", "vin", "da", "lo", "pex", "tra"}
	row := func() []string {
		n := 2 + rng.Intn(6)
		var s string
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return []string{s}
	}
	var rowsA, rowsB [][]string
	for i := 0; i < 400; i++ {
		rowsA = append(rowsA, row())
		rowsB = append(rowsB, row())
	}
	cor, res := corpusFor(&testing.T{}, []string{"v"}, rowsA, rowsB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkList = JoinOne(cor, res.Root.Mask, nil, Options{K: 50})
	}
}
