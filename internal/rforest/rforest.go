// Package rforest is a from-scratch random forest classifier (CART
// decision trees with Gini splits, bootstrap bagging, and √d feature
// subsampling) — the learner behind the Match Verifier's active/online
// learning (Section 5 of the paper). The Go ecosystem offers no stdlib
// learner, so the paper's scikit-style forest is implemented manually;
// the verifier needs only Fit and per-item positive-vote confidence.
//
// A fit sorts each feature's values once. Every tree then keeps one
// sorted list per feature of its bootstrap's distinct examples, each
// with its multiplicity; a node is the same range of every list, and a
// split partitions each list stably, so the lists stay sorted and a
// node costs O(n) per feature. All of a forest's trees live in one node
// slab that the next Fit reuses, and the fit scratch comes from a small
// free list shared by all forests, so a warm refit allocates nothing.
// See DESIGN.md "Verifier forest kernel".
package rforest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"matchcatcher/internal/floats"
)

// Example is one labeled training instance.
type Example struct {
	X []float64
	Y bool
}

// Options tunes training. Non-positive values select defaults.
type Options struct {
	Trees            int   // number of trees (default 10)
	MaxDepth         int   // maximum tree depth (default 10)
	MinLeaf          int   // minimum examples per leaf (default 1)
	FeaturesPerSplit int   // features sampled per split (default ceil(sqrt(d)))
	Seed             int64 // RNG seed for bagging and feature sampling
}

func (o Options) withDefaults(d int) Options {
	if o.Trees <= 0 {
		o.Trees = 10
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 10
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 1
	}
	if o.FeaturesPerSplit <= 0 {
		o.FeaturesPerSplit = int(math.Ceil(math.Sqrt(float64(d))))
	}
	return o
}

// node is one tree node in the forest's slab. Each tree is stored in
// preorder, so a split's left child is the node right after it.
type node struct {
	thresh float64
	feat   int32 // split feature, or -1 for a leaf
	right  int32 // slab index of the right child (splits only)
	vote   bool  // leaf majority
}

// Forest is a trained random forest. The zero value is an empty forest
// ready for Fit.
type Forest struct {
	nodes []node  // every tree, each in preorder
	roots []int32 // slab index of each tree's root
	d     int
}

// trainer is the scratch of one fit. Blocks come from fitPool. It copies
// the values it needs and keeps no reference to the caller's examples.
type trainer struct {
	f   *Forest
	opt Options
	rng *rand.Rand
	n   int // examples: the stride of every per-feature run below
	// sorted holds d runs of n entries: every example, ascending by its
	// value on the run's feature, NaNs first. Filled once per fit.
	sorted []entry
	// lists holds d runs of n entries: the current tree's distinct
	// bootstrap examples in sorted order. A node is the range [lo, hi)
	// of every run.
	lists []entry
	spill []entry // the right side of a stable partition
	wy    []int32 // per example: bootstrap multiplicity << 1 | label
	left  []bool  // per example: goes left at the split being applied
	perm  []int   // feature sampling permutation
}

// entry is one example on one feature.
type entry struct {
	v  float64 // the example's value on the run's feature
	i  int32   // example index
	wy int32   // bootstrap multiplicity << 1 | label (lists only)
}

// fitPool recycles fit scratch across forests and fits. It is a free
// list of at most GOMAXPROCS blocks, like ssjoin's probePool. A
// sync.Pool loses its blocks across two GC cycles, and sessions pass
// that many between fits often enough to rebuild the scratch; scratch
// owned by each Forest is rebuilt by every new session and regrown as
// its labelled set grows. The cap bounds what the list keeps alive to
// one block per P.
var fitPool struct {
	mu   sync.Mutex
	free []*trainer
}

func getTrainer() *trainer {
	fitPool.mu.Lock()
	defer fitPool.mu.Unlock()
	n := len(fitPool.free)
	if n == 0 {
		return &trainer{}
	}
	t := fitPool.free[n-1]
	fitPool.free[n-1] = nil
	fitPool.free = fitPool.free[:n-1]
	return t
}

// putTrainer returns t to the free list. It drops the forest first, so
// the list never pins it; buffers survive.
func putTrainer(t *trainer) {
	t.f = nil
	fitPool.mu.Lock()
	defer fitPool.mu.Unlock()
	if len(fitPool.free) < runtime.GOMAXPROCS(0) {
		fitPool.free = append(fitPool.free, t)
	}
}

// Train fits a new forest on the examples. It returns an error when there
// are no examples or inconsistent feature dimensions.
func Train(examples []Example, opt Options) (*Forest, error) {
	f := new(Forest)
	if err := f.Fit(examples, opt); err != nil {
		return nil, err
	}
	return f, nil
}

// Fit retrains f on the examples, replacing its trees. It reuses the
// node slab of f's previous fit and pooled scratch, so a warm refit
// allocates only when the training set outgrows them. On error f is
// unchanged. The forest is the same as Train's for the same examples
// and options. Fits of distinct forests may run concurrently.
func (f *Forest) Fit(examples []Example, opt Options) error {
	if len(examples) == 0 {
		return fmt.Errorf("rforest: no training examples")
	}
	d := len(examples[0].X)
	if d == 0 {
		return fmt.Errorf("rforest: zero-dimensional features")
	}
	for i, ex := range examples {
		if len(ex.X) != d {
			return fmt.Errorf("rforest: example %d has %d features, want %d", i, len(ex.X), d)
		}
	}
	t := getTrainer()
	defer putTrainer(t)
	t.fit(f, examples, opt.withDefaults(d))
	return nil
}

// fit grows f's trees. The RNG stream is the reference trainer's: per
// tree, n bootstrap draws, then depth first, left before right, one
// feature permutation per node that tries a split.
func (t *trainer) fit(f *Forest, ex []Example, opt Options) {
	t.f, t.opt = f, opt
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(opt.Seed))
	} else {
		t.rng.Seed(opt.Seed)
	}
	n, d := len(ex), len(ex[0].X)
	t.n = n
	t.sorted = resize(t.sorted, d*n)
	t.lists = resize(t.lists, d*n)
	t.spill = resize(t.spill, n)
	t.wy = resize(t.wy, n)
	t.left = resize(t.left, n)
	t.perm = resize(t.perm, d)
	for ft := range d {
		run := t.sorted[ft*n : ft*n+n]
		for i := range run {
			run[i] = entry{v: ex[i].X[ft], i: int32(i)}
		}
		// cmp.Compare puts NaNs first: the floats.Less order.
		slices.SortFunc(run, func(a, b entry) int { return cmp.Compare(a.v, b.v) })
	}
	f.d = d
	f.nodes, f.roots = f.nodes[:0], f.roots[:0]
	for range opt.Trees {
		clear(t.wy)
		for range n {
			t.wy[t.rng.Intn(n)] += 2
		}
		pos := 0
		for i := range t.wy {
			if ex[i].Y {
				pos += int(t.wy[i] >> 1)
				t.wy[i] |= 1
			}
		}
		f.roots = append(f.roots, int32(len(f.nodes)))
		t.grow(0, t.root(), n, pos, 0)
	}
}

// root fills the lists with the tree's distinct bootstrap examples and
// returns their count.
func (t *trainer) root() int {
	k := 0
	for off := 0; off < len(t.sorted); off += t.n {
		k = 0
		list := t.lists[off : off+t.n]
		for _, e := range t.sorted[off : off+t.n] {
			if wy := t.wy[e.i]; wy > 1 {
				list[k] = entry{v: e.v, i: e.i, wy: wy}
				k++
			}
		}
	}
	return k
}

// resize returns s with length n, growing its capacity geometrically.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// gini returns the Gini impurity of a split count.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// leaf reports whether a node of w examples (with multiplicity), pos of
// them positive, at the given depth stops without trying a split.
func (t *trainer) leaf(w, pos, depth int) bool {
	return depth >= t.opt.MaxDepth || w < 2*t.opt.MinLeaf || pos == 0 || pos == w
}

// grow appends the subtree of the node whose examples are the range
// [lo, hi) of every list — w of them counting bootstrap duplicates, pos
// positive — to the slab, depth first, left before right.
func (t *trainer) grow(lo, hi, w, pos, depth int) {
	f := t.f
	at := len(f.nodes)
	f.nodes = append(f.nodes, node{feat: -1, vote: pos*2 >= w})
	if t.leaf(w, pos, depth) {
		return
	}
	c := t.split(lo, hi, w, pos)
	if c.feat < 0 {
		return
	}
	f.nodes[at].feat, f.nodes[at].thresh = int32(c.feat), c.thresh
	rw, rp := w-c.ln, pos-c.lp
	// A leaf reads no list, so two leaf children need no partition and
	// their ranges are never used.
	mid := lo
	if !t.leaf(c.ln, c.lp, depth+1) || !t.leaf(rw, rp, depth+1) {
		mid = t.partition(lo, hi, c.feat, c.thresh)
	}
	t.grow(lo, mid, c.ln, c.lp, depth+1)
	f.nodes[at].right = int32(len(f.nodes))
	t.grow(mid, hi, rw, rp, depth+1)
}

// cut is a node's chosen split and the weighted counts it sends left.
type cut struct {
	feat   int // -1 when no threshold leaves MinLeaf on both sides
	thresh float64
	ln, lp int
}

// split returns the best cut over a fresh feature sample. Features are
// tried in sample order and a later one wins only with a strictly lower
// score.
func (t *trainer) split(lo, hi, w, pos int) cut {
	// rand.Perm's loop, replayed into the reused buffer: the same draws
	// give the same permutation, so the RNG stream is unchanged.
	perm := t.perm
	for i := range perm {
		j := t.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	best, score := cut{feat: -1}, math.Inf(1)
	for _, ft := range perm[:min(t.opt.FeaturesPerSplit, len(perm))] {
		off := ft * t.n
		if th, s, ln, lp := sweep(t.lists[off+lo:off+hi], w, pos, t.opt.MinLeaf); s < score {
			best, score = cut{feat: ft, thresh: th, ln: ln, lp: lp}, s
		}
	}
	return best
}

// sweep returns the lowest-impurity threshold of one feature at a node,
// given the node's sorted list on that feature (w examples counting
// multiplicity, pos of them positive), with the weighted counts it sends
// left; score is +Inf when no threshold leaves minLeaf (≥ 1) examples on
// each side. Thresholds are the midpoints of adjacent distinct values,
// tried in ascending order; a tie keeps the earlier one. x goes left
// when x <= thresh: the midpoints never decrease, so one pointer counts
// the left side across the whole sweep, and it still counts right when
// a midpoint rounds up to the upper value. An example listed once with
// multiplicity m counts as its m bootstrap copies would: the copies are
// equal values, so they add no midpoint and move the pointer together.
// NaN values sort first and never go left, and a NaN midpoint sends
// nothing left, so the sweep starts after them.
//
//mc:hotpath
func sweep(list []entry, w, pos, minLeaf int) (thresh, score float64, ln, lp int) {
	score = math.Inf(1)
	a := 0
	for a < len(list) && math.IsNaN(list[a].v) {
		a++
	}
	j, cl, cp := a, 0, 0
	for v := a + 1; v < len(list); v++ {
		// Exact on purpose: equal adjacent values produce no usable
		// split point between them.
		if floats.Equal(list[v].v, list[v-1].v) {
			continue
		}
		t := (list[v].v + list[v-1].v) / 2
		if math.IsNaN(t) {
			continue
		}
		for j < len(list) && list[j].v <= t {
			m := int(list[j].wy >> 1)
			cl += m
			cp += m & -int(list[j].wy&1)
			j++
		}
		rn := w - cl
		if cl < minLeaf || rn < minLeaf {
			continue
		}
		rp := pos - cp
		s := (float64(cl)*gini(cp, cl) + float64(rn)*gini(rp, rn)) / float64(cl+rn)
		if s < score {
			thresh, score, ln, lp = t, s, cl, cp
		}
	}
	return thresh, score, ln, lp
}

// partition moves the examples of the node [lo, hi) with value <= thresh
// on feat to the front of the range, in every list, keeping each side's
// order so the children's lists stay sorted. It returns where the right
// child starts.
//
//mc:hotpath
func (t *trainer) partition(lo, hi, feat int, thresh float64) int {
	mid := lo
	for _, e := range t.lists[feat*t.n+lo : feat*t.n+hi] {
		l := e.v <= thresh
		t.left[e.i] = l
		if l {
			mid++
		}
	}
	for off := 0; off < len(t.lists); off += t.n {
		list := t.lists[off+lo : off+hi]
		l, r := 0, 0
		for _, e := range list {
			if t.left[e.i] {
				list[l] = e
				l++
			} else {
				t.spill[r] = e
				r++
			}
		}
		copy(list[l:], t.spill[:r])
	}
	return mid
}

// Confidence returns the fraction of trees voting "match" — the positive
// prediction confidence of Section 5. It is 0 for a vector of the wrong
// dimension and for an empty forest.
//
//mc:hotpath
func (f *Forest) Confidence(x []float64) float64 {
	if len(x) != f.d || len(f.roots) == 0 {
		return 0
	}
	nodes := f.nodes
	pos := 0
	for _, r := range f.roots {
		i := r
		for nodes[i].feat >= 0 {
			if x[nodes[i].feat] <= nodes[i].thresh {
				i++
			} else {
				i = nodes[i].right
			}
		}
		if nodes[i].vote {
			pos++
		}
	}
	return float64(pos) / float64(len(f.roots))
}

// Predict returns the majority vote.
func (f *Forest) Predict(x []float64) bool { return f.Confidence(x) >= 0.5 }

// NumTrees returns the forest size.
func (f *Forest) NumTrees() int { return len(f.roots) }
