package ssjoin

// The flat-arena kernel's differential and white-box harness. The
// kernel keeps pair states in one of two stores — the dense
// epoch-stamped table, or the hashed pairTable past denseStateLimit —
// and the choice must be invisible: same top-k bytes AND same runStats
// counter stream. The harness shrinks denseStateLimit to drive the
// hashed store over the same corpora the dense store runs, and
// byte-compares both across store × pool-state × worker grids, with
// BruteForce as the filter-free oracle (both stores run the same strict
// pair filters, so only brute force proves the filters themselves sound
// end to end). The white-box half pins the pair-state machinery
// directly: epoch-stamped reset (growth, bump, nibble wraparound),
// 64-bit pair keys, poisoned pool reuse, and the zero-alloc probe path.

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

// defaultDenseStateLimit is the production bound, read before any test
// shrinks it.
var defaultDenseStateLimit = denseStateLimit

// useHashedStore sends the next joins' pair states to the hashed store
// (hashed) or back under the production dense bound, restoring the
// bound on cleanup. Tests in this package run sequentially, so the
// package-level var is safe to flip here.
func useHashedStore(t testing.TB, hashed bool) {
	t.Helper()
	prev := denseStateLimit
	denseStateLimit = defaultDenseStateLimit
	if hashed {
		denseStateLimit = 0
	}
	t.Cleanup(func() { denseStateLimit = prev })
}

// TestKernelSeamDifferential is the core store-axis oracle: over a
// seeds × configs × q × k grid, the dense store, the hashed store, and
// BruteForce must return bit-identical lists. Brute force is the
// essential third leg — both stores run the strict pair filters, so
// only a filter-free oracle can prove the filters never drop a retained
// pair.
func TestKernelSeamDifferential(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		cor, res, c := randomCorpus(t, rng, 35, 30)
		for _, mask := range res.Configs() {
			for _, q := range []int{1, 2, 3} {
				for _, k := range []int{5, 20} {
					label := fmt.Sprintf("seed=%d mask=%b q=%d k=%d", seed, mask, q, k)
					want := BruteForce(cor, mask, c, k, simfunc.Jaccard)
					useHashedStore(t, false)
					dense := JoinOne(cor, mask, c, Options{K: k, Q: q})
					useHashedStore(t, true)
					hashed := JoinOne(cor, mask, c, Options{K: k, Q: q})
					requireIdentical(t, label+" dense vs brute", dense, want)
					requireIdentical(t, label+" hashed vs dense", hashed, dense)
				}
			}
		}
	}
}

// TestKernelSeamStatsIdentical extends the differential to the counter
// stream: canonical reports embed the ssjoin.Stats counters, so the two
// stores must agree on every count, not just on the lists. Checked end
// to end through JoinAll at several Workers.
func TestKernelSeamStatsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cor, _, c := randomCorpus(t, rng, 32, 28)
	run := func(hashed bool, w int) ([]TopKList, Stats) {
		useHashedStore(t, hashed)
		res := JoinAll(cor, c, Options{K: 12, Q: 2, Workers: w})
		return res.Lists, res.Stats
	}
	for _, w := range []int{1, 3} {
		label := fmt.Sprintf("workers=%d", w)
		denseLists, denseStats := run(false, w)
		hashedLists, hashedStats := run(true, w)
		requireIdenticalLists(t, label, hashedLists, denseLists)
		if !reflect.DeepEqual(hashedStats, denseStats) {
			t.Errorf("%s: counter streams diverge across the pair stores:\nhashed: %+v\ndense:  %+v",
				label, hashedStats, denseStats)
		}
	}
}

// TestPoolReusePoisonInvisible proves pooled probe reuse cannot leak
// state between probes: the pool is pre-seeded with probes whose
// buffers hold adversarial garbage — dense pair-state bytes stamped at
// every nibble epoch (including the probe's next epoch), hashed-table
// slots, stale slabs, stale event and top-k heaps (top-k items past len
// included, scored above any real pair), stale instance ids — and joins
// alternating dense → hashed → dense → hashed through that pool must
// still match the reference bit for bit, counters included. The
// alternation guards the epoch the two stores share: a hashed probe that
// reset the epoch without clearing the dense table would let the next
// dense probe read old stamps as live.
func TestPoolReusePoisonInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	cor, _, c := randomCorpus(t, rng, 30, 30)
	opt := Options{K: 10, Q: 2, Workers: 1}
	ref := JoinAll(cor, c, opt)

	for trial := 0; trial < 4; trial++ {
		for i := 0; i < 3; i++ {
			p := &flatProbe{}
			p.resetPairs(64*1024, false)
			p.epoch = uint8(1 + rng.Intn(15))
			// Stamps stay <= the probe's epoch: that is the table's
			// invariant (a stamp equal to a FUTURE epoch is unreachable —
			// the bump strictly outruns every written stamp and the
			// wraparound clears), and it is exactly what the next wire()'s
			// epoch bump must render invisible.
			for j := range p.pairs {
				p.pairs[j] = pairPack(uint8(rng.Intn(int(p.epoch)+1)), int8(rng.Intn(16)+pairKilled))
			}
			p.table.reset()
			for j := 0; j < 500; j++ {
				*p.table.cell(int64(rng.Intn(30 * 30))) = uint8(rng.Intn(256))
			}
			p.events.items = append(p.events.items, event{cap: 9, side: 0, rec: 7})
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
			p.slabA = append(p.slabA, postEntry{rec: 3, pos: 3})
			p.touched = append(p.touched, 11, 7, 5)
			p.touchedKeys = append(p.touchedKeys, 13, 2)
			p.posA = append(p.posA, 42)
			probePool.Put(p)
		}
		for step, hashed := range []bool{false, true, false, true} {
			useHashedStore(t, hashed)
			got := JoinAll(cor, c, opt)
			label := fmt.Sprintf("poisoned pool trial %d step %d (hashed=%v)", trial, step, hashed)
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
	ref := JoinOne(cor, mask, nil, Options{K: k, Q: 2})

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
		got := JoinOne(pCor, pRes.Root.Mask, nil, Options{K: k, Q: 2})

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
				got := JoinOne(cor, mask, c, Options{K: k, Q: 2})
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

	// Pair (A0, B0) scores 2/4 = 0.5 and fills the k=1 list. A1 and B1
	// (12 tokens each) share cc plus the f-fillers; their rank orders put
	// six unique tokens (rarer than cc) first, then cc at position 6 —
	// cap exactly (12-6)/12 = 0.5, which survives the strict push-cap
	// prune as a tie — then the f-fillers (more frequent, so
	// prefix-later; their extensions cap below 0.5 and die at push). At
	// the touch, the length bound is FromOverlap(12,12,12) = 1.0 (equal
	// lengths — the length filter cannot fire), but the positional bound
	// is FromOverlap(1+min(5,5),12,12) = 6/18 < 0.5: only the prefix_pos
	// tier can kill it.
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
	got := JoinOne(cor, res.Root.Mask, nil, Options{K: 1, Q: 1})
	if len(got.Pairs) != 1 || got.Pairs[0].A != 0 || got.Pairs[0].B != 0 || got.Pairs[0].Score != 0.5 {
		t.Fatalf("expected (A0,B0)=0.5 to win: %+v", got.Pairs)
	}
	if !slices.Contains(tiers, tierPrefixPos) {
		t.Errorf("positional prefix filter did not fire; tiers seen: %v", tiers)
	}
	want := BruteForce(cor, res.Root.Mask, nil, 1, simfunc.Jaccard)
	requireIdentical(t, "crafted corpus vs brute force", got, want)
}

// TestEpochReset white-boxes resetPairs across its paths: growth
// (fresh zeroed table, epoch restarts at 1), the O(1) bump (stale
// entries become invisible without a clear), the nibble wraparound (the
// table must be cleared or epoch-1 garbage would alias as live), and
// the hashed store, which must leave the dense table's epoch alone.
func TestEpochReset(t *testing.T) {
	p := &flatProbe{}
	p.resetPairs(100, false)
	if p.epoch != 1 || len(p.pairs) != 100 {
		t.Fatalf("growth path: epoch=%d len=%d", p.epoch, len(p.pairs))
	}
	p.pairs[7] = pairPack(p.epoch, 3)
	p.pairs[8] = pairPack(p.epoch, pairSuppressed)

	p.resetPairs(100, false)
	if p.epoch != 2 {
		t.Fatalf("bump path: epoch=%d", p.epoch)
	}
	for _, i := range []int{7, 8} {
		if pairEpoch(p.pairs[i]) == p.epoch {
			t.Fatalf("stale entry %d reads as live after epoch bump", i)
		}
	}
	p.pairs[7] = pairPack(p.epoch, 5)
	if pairState(p.pairs[7]) != 5 || pairEpoch(p.pairs[7]) != 2 {
		t.Fatalf("roundtrip: state=%d epoch=%d", pairState(p.pairs[7]), pairEpoch(p.pairs[7]))
	}

	// A hashed probe in between keeps the epoch and the dense table: the
	// next dense reset must still bump past every stamp written so far.
	p.resetPairs(1<<40, true)
	if p.epoch != 2 || !p.hashed || pairEpoch(p.pairs[7]) != 2 {
		t.Fatalf("hashed reset: epoch=%d hashed=%v stamp7=%d", p.epoch, p.hashed, pairEpoch(p.pairs[7]))
	}
	p.resetPairs(100, false)
	if p.epoch != 3 || p.hashed || pairEpoch(p.pairs[7]) == p.epoch {
		t.Fatalf("dense after hashed: epoch=%d hashed=%v", p.epoch, p.hashed)
	}

	// Drive to the wraparound: epochs 4..15, then the 16th reset wraps.
	for p.epoch < 15 {
		p.pairs[9] = pairPack(p.epoch, 1) // garbage at every epoch
		p.resetPairs(100, false)
	}
	if p.epoch != 15 {
		t.Fatalf("pre-wrap epoch=%d", p.epoch)
	}
	p.pairs[3] = pairPack(15, 7)
	p.resetPairs(100, false)
	if p.epoch != 1 {
		t.Fatalf("wrap path: epoch=%d, want 1", p.epoch)
	}
	for i, v := range p.pairs {
		if v != 0 {
			t.Fatalf("wrap path left pairs[%d]=%#x uncleared", i, v)
		}
	}

	// Shrink+regrow within capacity must keep the epoch discipline.
	p.pairs[0] = pairPack(p.epoch, 2)
	p.resetPairs(10, false)
	if len(p.pairs) != 10 || pairEpoch(p.pairs[0]) == p.epoch {
		t.Fatalf("shrink: len=%d epoch0=%d cur=%d", len(p.pairs), pairEpoch(p.pairs[0]), p.epoch)
	}
	p.resetPairs(4096, false)
	if len(p.pairs) != 4096 || p.epoch != 1 {
		t.Fatalf("regrow: len=%d epoch=%d", len(p.pairs), p.epoch)
	}

	// A probe whose first run is hashed starts the epoch at 1, so fresh
	// (zero) slots read as unseen.
	h := &flatProbe{}
	h.resetPairs(1<<40, true)
	if h.epoch != 1 || pairEpoch(*h.cell(5)) == h.epoch {
		t.Fatalf("fresh hashed probe: epoch=%d", h.epoch)
	}
}

// TestEpochWraparoundEndToEnd runs enough joins through one process to
// cross the nibble wraparound many times (every 15 probes), comparing
// each run against the first: any stale-state leak across the wrap
// shows up as a flipped bit. The pool is also pre-seeded with a probe
// parked one reset away from wrapping.
func TestEpochWraparoundEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	cor, res, c := randomCorpus(t, rng, 25, 25)
	mask := res.Root.Mask

	parked := &flatProbe{}
	parked.resetPairs(25*25, false)
	parked.epoch = 15
	for j := range parked.pairs {
		parked.pairs[j] = pairPack(15, int8(j%16+pairKilled))
	}
	probePool.Put(parked)

	ref := JoinOne(cor, mask, c, Options{K: 8, Q: 2})
	for i := 0; i < 40; i++ {
		got := JoinOne(cor, mask, c, Options{K: 8, Q: 2})
		requireIdentical(t, fmt.Sprintf("run %d", i), got, ref)
	}
}

// TestAutoKernelSelection pins the pair-store policy: the dense table
// only while the config's whole pair space fits denseStateLimit — and
// the choice must be invisible in the output.
func TestAutoKernelSelection(t *testing.T) {
	storeFor := func(nA, nB int) bool {
		p := &flatProbe{ids: denseInstances{a: make([][]int32, nA), b: make([][]int32, nB)}}
		p.wire(&Corpus{}, 0, runOpts{q: 2})
		return p.hashed
	}
	if storeFor(100, 100) {
		t.Error("small corpus should use the dense store")
	}
	denseStateLimit = 64
	t.Cleanup(func() { denseStateLimit = defaultDenseStateLimit })
	if !storeFor(9, 9) { // 81 pairs > 64
		t.Error("pair space beyond denseStateLimit must use the hashed store")
	}
	if storeFor(8, 8) {
		t.Error("pair space within denseStateLimit should use the dense store")
	}

	rng := rand.New(rand.NewSource(800))
	cor, res, cset := randomCorpus(t, rng, 20, 20)
	mask := res.Root.Mask
	hashed := JoinOne(cor, mask, cset, Options{K: 10, Q: 2}) // 400 pairs: hashed under the shrunken limit
	denseStateLimit = defaultDenseStateLimit
	dense := JoinOne(cor, mask, cset, Options{K: 10, Q: 2})
	requireIdentical(t, "across the limit boundary", hashed, dense)
}

// TestLargeQClamped covers q beyond the packed-state range: runJoin
// clamps it, and since q never changes an exact join's output, every
// such q must still return the brute-force list, on both stores.
func TestLargeQClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(850))
	cor, res, c := randomCorpus(t, rng, 30, 25)
	for _, mask := range res.Configs() {
		want := BruteForce(cor, mask, c, 15, simfunc.Jaccard)
		for _, q := range []int{13, 20, 100} {
			for _, hashed := range []bool{false, true} {
				useHashedStore(t, hashed)
				got := JoinOne(cor, mask, c, Options{K: 15, Q: q})
				requireIdentical(t, fmt.Sprintf("mask=%b q=%d hashed=%v", mask, q, hashed), got, want)
			}
		}
	}
}

// TestPairKeyBeyondInt32 white-boxes the hashed store's 64-bit keying
// on a pair space of 10G pairs (empty records, so nothing is built but
// the pair space): a pair index past 2^32 must neither wrap nor alias
// the key 2^32 below it, and pairOf must invert pairIdx.
func TestPairKeyBeyondInt32(t *testing.T) {
	const n = 100000
	p := &flatProbe{ids: denseInstances{a: make([][]int32, n), b: make([][]int32, n)}}
	p.wire(&Corpus{}, 0, runOpts{q: 2})
	if !p.hashed {
		t.Fatal("a 10G-pair space must use the hashed store")
	}
	a, b := int32(n-1), int32(n-2)
	idx := p.pairIdx(a, b)
	if want := int64(n-1)*n + int64(n-2); idx != want || idx < 1<<32 {
		t.Fatalf("pairIdx(%d,%d) = %d, want %d (> 2^32)", a, b, idx, want)
	}
	if ga, gb := p.pairOf(idx); ga != a || gb != b {
		t.Fatalf("pairOf(%d) = (%d,%d), want (%d,%d)", idx, ga, gb, a, b)
	}
	*p.cell(idx) = pairPack(p.epoch, 4)
	alias := idx - 1<<32
	if got := *p.cell(alias); got != 0 {
		t.Fatalf("key %d aliases key %d: state %#x", alias, idx, got)
	}
	*p.cell(alias) = pairPack(p.epoch, 2)
	if pairState(*p.cell(idx)) != 4 || pairState(*p.cell(alias)) != 2 {
		t.Fatal("keys 2^32 apart share a slot")
	}
	if ga, gb := p.pairOf(alias); p.pairIdx(ga, gb) != alias {
		t.Fatalf("pairOf/pairIdx do not round-trip %d", alias)
	}
}

// TestPairTableGrowth drives the hashed store through several doublings
// with keys spread past 2^32: every key keeps its own state, the load
// stays at most ½, and reset empties the table but keeps its size.
func TestPairTableGrowth(t *testing.T) {
	var tb pairTable
	tb.reset()
	const keys = 20000
	key := func(i int) int64 { return int64(i)*(1<<20+7) + 1<<33 }
	for i := 0; i < keys; i++ {
		*tb.cell(key(i)) = uint8(i)
	}
	if tb.used != keys || 2*tb.used > len(tb.slots) || len(tb.slots)&(len(tb.slots)-1) != 0 {
		t.Fatalf("used=%d slots=%d", tb.used, len(tb.slots))
	}
	for i := 0; i < keys; i++ {
		if v := *tb.cell(key(i)); v != uint8(i) {
			t.Fatalf("key %d: state %d, want %d", key(i), v, uint8(i))
		}
	}
	if tb.used != keys {
		t.Fatalf("lookups inserted: used=%d", tb.used)
	}
	size := len(tb.slots)
	tb.reset()
	if tb.used != 0 || len(tb.slots) != size || *tb.cell(key(7)) != 0 {
		t.Fatalf("reset: used=%d slots=%d (was %d)", tb.used, len(tb.slots), size)
	}
}

// TestFlatProbePathZeroAllocs pins the tentpole's allocation contract
// dynamically: with warm pooled buffers, the whole probe path —
// wire, absorb, seed, probe, finish — allocates nothing, on the dense
// store and on a hashed store already grown by an earlier probe. (The
// static half is mclint's hotalloc/-escapes gate; testing.AllocsPerRun
// catches what escape analysis can't, e.g. amortized append growth
// would show up here as a fractional count.)
func TestFlatProbePathZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	cor, res, c := randomCorpus(t, rng, 40, 40)
	mask := res.Root.Mask

	for _, hashed := range []bool{false, true} {
		useHashedStore(t, hashed)
		opt := runOpts{k: 10, q: 2, m: simfunc.Jaccard, c: c, stats: &runStats{}}
		p := &flatProbe{}
		p.ids.tokenize(cor, mask)
		runProbe := func() {
			p.wire(cor, mask, opt)
			p.absorb(nil)
			p.seed()
			p.probe()
			p.finish()
		}
		runProbe() // warm the buffers (growth is allowed to allocate)
		if p.hashed != hashed {
			t.Fatalf("hashed=%v: probe ran the wrong store", hashed)
		}
		if allocs := testing.AllocsPerRun(20, runProbe); allocs != 0 {
			t.Errorf("hashed=%v: warm probe path allocated %.2f times per run, want 0", hashed, allocs)
		}
		if p.top.Len() == 0 {
			t.Fatalf("hashed=%v: probe produced no pairs — the zero-alloc run measured nothing", hashed)
		}
	}
}

// FuzzPrefixFilter feeds arbitrary corpora through both pair stores
// (filters live) against BruteForce (no filters): any input where the
// length or positional prefix filter, the suppression check or the
// flush bound drops a pair that belonged in the top-k — tie boundaries,
// equal scores, degenerate records — or where the stores disagree shows
// up as a list mismatch. The fuzz bytes also pick a C set (so filters
// and suppression meet on the same pairs), and every config of the
// two-attribute tables is joined, child masks included. Registered in
// the Makefile fuzz-smoke target.
func FuzzPrefixFilter(f *testing.F) {
	f.Add(uint8(1), uint8(2), []byte("abc\ndef g\nhij"))
	f.Add(uint8(3), uint8(1), []byte("a b c d e f g h i\nz\na b\nq r s"))
	f.Add(uint8(2), uint8(3), []byte("aa bb\naa bb\naa bb\ncc"))
	f.Add(uint8(1), uint8(1), []byte("\n\n\n"))
	f.Add(uint8(12), uint8(9), []byte("a b c|d e\na b|c d e f\nb c|d\na c|e f g\nb d e|f"))
	f.Add(uint8(21), uint8(30), []byte("a b c d|e f\nc d e|f g\na b|c\nb c d e|f\nd e f|a b\na|b c"))
	f.Fuzz(func(t *testing.T, kRaw, qRaw uint8, data []byte) {
		k := int(kRaw%8) + 1
		q := int(qRaw%4) + 1
		rows := decodeFuzzRows(data)
		if len(rows) < 2 {
			return
		}
		half := len(rows) / 2
		cor, res, err := buildCorpus([]string{"v", "w"}, rows[:half], rows[half:])
		if err != nil {
			return // no config to join: the generator rejected the tables
		}
		c := fuzzPairSet(qRaw/4, half, len(rows)-half)
		for _, mask := range res.Configs() {
			want := BruteForce(cor, mask, c, k, simfunc.Jaccard)
			for _, hashed := range []bool{false, true} {
				useHashedStore(t, hashed)
				got := runJoin(cor, mask, runOpts{k: k, q: q, m: simfunc.Jaccard, c: c})
				requireIdentical(t, fmt.Sprintf("mask=%b hashed=%v k=%d q=%d", mask, hashed, k, q), got, want)
			}
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

// TestFlushBoundSound white-boxes the exactness flush's bound: after the
// probe loop, every pair still deferred must satisfy
//
//	overlap <= flushBound <= min(st + (lx-posA) + (ly-posB), lx, ly)
//
// — sound against the exact overlap, and never looser than the
// two-suffix bound it replaced — across corpora, configs, q and both
// stores. The grid must also reach pairs where the lagging-side bound is
// strictly tighter, or it would prove nothing about the change.
func TestFlushBoundSound(t *testing.T) {
	checked, tighter := 0, 0
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(950 + seed))
		cor, res, c := randomCorpus(t, rng, 30, 26)
		for _, mask := range res.Configs() {
			var ids denseInstances
			ids.tokenize(cor, mask)
			for q := 1; q <= 4; q++ {
				for _, hashed := range []bool{false, true} {
					useHashedStore(t, hashed)
					p := &flatProbe{ids: ids}
					p.wire(cor, mask, runOpts{k: 6, q: q, m: simfunc.Jaccard, c: c, stats: &runStats{}})
					p.seed()
					p.probe()
					var keys []int64
					for _, idx := range p.touched {
						keys = append(keys, int64(idx))
					}
					keys = append(keys, p.touchedKeys...)
					for _, idx := range keys {
						v := *p.cell(idx)
						st := int32(pairState(v))
						if pairEpoch(v) != p.epoch || st <= 0 {
							continue
						}
						a, b := p.pairOf(idx)
						lx, ly := len(p.ids.a[a]), len(p.ids.b[b])
						old := min(int(st)+lx-int(p.posA[a])+ly-int(p.posB[b]), lx, ly)
						bound := p.flushBound(a, b, st)
						exact := overlapUnder(&cor.recsA[a], &cor.recsB[b], mask)
						if exact > bound || bound > old {
							t.Fatalf("seed=%d mask=%b q=%d hashed=%v pair (%d,%d) st=%d: overlap %d, bound %d, two-suffix bound %d",
								seed, mask, q, hashed, a, b, st, exact, bound, old)
						}
						checked++
						if bound < old {
							tighter++
						}
					}
				}
			}
		}
	}
	if checked == 0 || tighter == 0 {
		t.Fatalf("grid checked %d deferred pairs, %d with a tighter bound: it proves nothing", checked, tighter)
	}
	t.Logf("%d deferred pairs checked, %d with a strictly tighter bound", checked, tighter)
}

// sink guards against dead-code elimination in benchmarks below.
var sinkList TopKList

// BenchmarkJoinOneKernel compares the two pair stores on the same
// corpus (the hashed sub-benchmark shrinks denseStateLimit to reach it).
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
	for _, hashed := range []bool{false, true} {
		name := "dense"
		if hashed {
			name = "hashed"
		}
		b.Run(name, func(b *testing.B) {
			useHashedStore(b, hashed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkList = JoinOne(cor, res.Root.Mask, nil, Options{K: 50, Q: 2})
			}
		})
	}
}
