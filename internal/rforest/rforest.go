// Package rforest is a from-scratch random forest classifier (CART
// decision trees with Gini splits, bootstrap bagging, and √d feature
// subsampling) — the learner behind the Match Verifier's active/online
// learning (Section 5 of the paper). The Go ecosystem offers no stdlib
// learner, so the paper's scikit-style forest is implemented manually;
// the verifier needs only Fit and per-item positive-vote confidence.
//
// A fit is O(n log n) per sampled feature per node: each feature's node
// values are sorted once and the thresholds are swept with a monotone
// pointer. All of a forest's trees live in one node slab, and a Forest
// keeps its slab and training scratch for the next Fit, so refitting
// the same Forest allocates nothing once its buffers have grown. See
// DESIGN.md "Verifier forest kernel".
package rforest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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
	nodes   []node  // every tree, each in preorder
	roots   []int32 // slab index of each tree's root
	d       int
	scratch trainer // buffers the next Fit reuses
}

// trainer holds the buffers one fit reuses for every tree and node.
type trainer struct {
	ex     []Example
	opt    Options
	rng    *rand.Rand
	sample []int32 // bootstrap sample; each node partitions its range in place
	vals   []obs   // one feature's (value, label) pairs at the current node
	perm   []int   // feature sampling permutation
}

// obs is one example's value on the feature being split, with its label.
type obs struct {
	v float64
	y bool
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
// node slab and scratch of f's previous fit, so a warm refit allocates
// only when the training set outgrows them. On error f is unchanged.
// The forest is the same as Train's for the same examples and options.
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
	opt = opt.withDefaults(d)
	t := &f.scratch
	t.ex, t.opt = examples, opt
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(opt.Seed))
	} else {
		t.rng.Seed(opt.Seed)
	}
	n := len(examples)
	t.sample = resize(t.sample, n)
	t.vals = resize(t.vals, n)
	t.perm = resize(t.perm, d)
	f.d = d
	f.nodes, f.roots = f.nodes[:0], f.roots[:0]
	for range opt.Trees {
		for i := range t.sample {
			t.sample[i] = int32(t.rng.Intn(n))
		}
		f.roots = append(f.roots, int32(len(f.nodes)))
		f.grow(t.sample, 0)
	}
	t.ex = nil // do not pin the caller's examples between fits
	return nil
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

// grow appends the subtree over the sample indices idx to the slab,
// depth first, left before right — the order the RNG stream is drawn in.
// It partitions idx in place; the order within a node changes no count,
// sort result or threshold, so it changes no split.
func (f *Forest) grow(idx []int32, depth int) {
	t := &f.scratch
	pos := 0
	for _, i := range idx {
		if t.ex[i].Y {
			pos++
		}
	}
	at := len(f.nodes)
	f.nodes = append(f.nodes, node{feat: -1, vote: pos*2 >= len(idx)})
	if depth >= t.opt.MaxDepth || len(idx) < 2*t.opt.MinLeaf || pos == 0 || pos == len(idx) {
		return
	}
	feat, thresh := t.split(idx, pos)
	if feat < 0 {
		return
	}
	l := 0
	for k, i := range idx {
		if t.ex[i].X[feat] <= thresh {
			idx[l], idx[k] = idx[k], idx[l]
			l++
		}
	}
	f.nodes[at].feat, f.nodes[at].thresh = int32(feat), thresh
	f.grow(idx[:l], depth+1)
	f.nodes[at].right = int32(len(f.nodes))
	f.grow(idx[l:], depth+1)
}

// split returns the best (feature, threshold) over a fresh feature
// sample, or feature -1 when no threshold leaves MinLeaf on both sides.
// Features are tried in sample order and a later one wins only with a
// strictly lower score.
func (t *trainer) split(idx []int32, pos int) (feat int, thresh float64) {
	// rand.Perm's loop, replayed into the reused buffer: the same draws
	// give the same permutation, so the RNG stream is unchanged.
	perm := t.perm
	for i := range perm {
		j := t.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	feat, best := -1, math.Inf(1)
	vals := t.vals[:len(idx)]
	for _, ft := range perm[:min(t.opt.FeaturesPerSplit, len(perm))] {
		for k, i := range idx {
			vals[k] = obs{t.ex[i].X[ft], t.ex[i].Y}
		}
		if th, score := sweep(vals, pos, t.opt.MinLeaf); score < best {
			feat, thresh, best = ft, th, score
		}
	}
	return feat, thresh
}

// sweep returns the lowest-impurity threshold of one feature at a node
// holding vals (pos of them positive), or score +Inf when none leaves
// minLeaf (≥ 1) examples on each side. Thresholds are the midpoints of
// adjacent distinct sorted values, tried in ascending order; a tie keeps
// the earlier one. x goes left when x <= thresh: the midpoints never
// decrease, so one pointer counts the left side across the whole sweep,
// and it still counts right when a midpoint rounds up to the upper
// value. NaN values sort first and never go left; a NaN midpoint
// sends nothing left, so it is skipped.
//
//mc:hotpath
func sweep(vals []obs, pos, minLeaf int) (thresh, score float64) {
	// The floats.Less order: NaNs first, then the numbers ascending.
	n, nan := len(vals), 0
	for k := range vals {
		if math.IsNaN(vals[k].v) {
			vals[nan], vals[k] = vals[k], vals[nan]
			nan++
		}
	}
	slices.SortFunc(vals[nan:], byValue)
	score = math.Inf(1)
	j, lp := nan, 0
	for v := 1; v < n; v++ {
		// Exact on purpose: adjacent equal values in the sorted
		// column produce no usable split point between them.
		if floats.Equal(vals[v].v, vals[v-1].v) {
			continue
		}
		t := (vals[v].v + vals[v-1].v) / 2
		if math.IsNaN(t) {
			continue
		}
		for j < n && vals[j].v <= t {
			if vals[j].y {
				lp++
			}
			j++
		}
		ln := j - nan
		rn := n - ln
		if ln < minLeaf || rn < minLeaf {
			continue
		}
		rp := pos - lp
		s := (float64(ln)*gini(lp, ln) + float64(rn)*gini(rp, rn)) / float64(ln+rn)
		if s < score {
			thresh, score = t, s
		}
	}
	return thresh, score
}

// byValue orders non-NaN observations by value.
func byValue(a, b obs) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
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
