package rforest

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"matchcatcher/internal/floats"
)

// refNode is a node of the reference trainer's pointer tree.
type refNode struct {
	feat        int // split feature, or -1 for a leaf
	thresh      float64
	left, right *refNode
	vote        bool
}

// referenceTrain is the straightforward trainer the flat kernel must
// reproduce bit for bit: a fresh rand.Perm per node, an O(n) rescan of
// the node for every candidate threshold, and append-grown child index
// lists. It consumes the RNG stream in the same order as Fit.
func referenceTrain(examples []Example, opt Options) []*refNode {
	opt = opt.withDefaults(len(examples[0].X))
	rng := rand.New(rand.NewSource(opt.Seed))
	var trees []*refNode
	for t := 0; t < opt.Trees; t++ {
		sample := make([]int, len(examples))
		for i := range sample {
			sample[i] = rng.Intn(len(examples))
		}
		trees = append(trees, referenceGrow(examples, sample, opt, rng, 0))
	}
	return trees
}

func referenceGrow(examples []Example, idx []int, opt Options, rng *rand.Rand, depth int) *refNode {
	pos := 0
	for _, i := range idx {
		if examples[i].Y {
			pos++
		}
	}
	if depth >= opt.MaxDepth || len(idx) < 2*opt.MinLeaf || pos == 0 || pos == len(idx) {
		return &refNode{feat: -1, vote: pos*2 >= len(idx)}
	}
	d := len(examples[0].X)
	feats := rng.Perm(d)[:min(opt.FeaturesPerSplit, d)]

	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	vals := make([]float64, 0, len(idx))
	for _, feat := range feats {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, examples[i].X[feat])
		}
		sort.Float64s(vals)
		for v := 1; v < len(vals); v++ {
			if floats.Equal(vals[v], vals[v-1]) {
				continue
			}
			thresh := (vals[v] + vals[v-1]) / 2
			lp, ln, rp, rn := 0, 0, 0, 0
			for _, i := range idx {
				if examples[i].X[feat] <= thresh {
					ln++
					if examples[i].Y {
						lp++
					}
				} else {
					rn++
					if examples[i].Y {
						rp++
					}
				}
			}
			if ln < opt.MinLeaf || rn < opt.MinLeaf {
				continue
			}
			score := (float64(ln)*gini(lp, ln) + float64(rn)*gini(rp, rn)) / float64(ln+rn)
			if score < bestScore {
				bestFeat, bestThresh, bestScore = feat, thresh, score
			}
		}
	}
	if bestFeat < 0 {
		return &refNode{feat: -1, vote: pos*2 >= len(idx)}
	}
	var left, right []int
	for _, i := range idx {
		if examples[i].X[bestFeat] <= bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &refNode{
		feat:   bestFeat,
		thresh: bestThresh,
		left:   referenceGrow(examples, left, opt, rng, depth+1),
		right:  referenceGrow(examples, right, opt, rng, depth+1),
	}
}

func referenceConfidence(trees []*refNode, x []float64) float64 {
	pos := 0
	for _, n := range trees {
		for n.feat >= 0 {
			if x[n.feat] <= n.thresh {
				n = n.left
			} else {
				n = n.right
			}
		}
		if n.vote {
			pos++
		}
	}
	return float64(pos) / float64(len(trees))
}

// sameTree reports where the slab subtree at i first differs from the
// reference subtree r ("" when identical), and the slab index just past
// the subtree.
func sameTree(f *Forest, i int32, r *refNode) (string, int32) {
	n := f.nodes[i]
	if int(n.feat) != r.feat {
		return "feature", i
	}
	if r.feat < 0 {
		if n.vote != r.vote {
			return "leaf vote", i
		}
		return "", i + 1
	}
	if math.Float64bits(n.thresh) != math.Float64bits(r.thresh) {
		return "threshold", i
	}
	diff, next := sameTree(f, i+1, r.left)
	if diff != "" {
		return diff, next
	}
	if next != n.right {
		return "right child index", i
	}
	return sameTree(f, n.right, r.right)
}

// checkMatchesReference trains both trainers, then compares every
// tree's shape, split features and thresholds bit for bit, and the
// confidence on the training points and on the probes. It also refits
// a warm forest on the same data to pin that reuse changes nothing.
func checkMatchesReference(t *testing.T, exs []Example, opt Options, probes [][]float64) {
	t.Helper()
	f, err := Train(exs, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceTrain(exs, opt)
	if f.NumTrees() != len(ref) {
		t.Fatalf("%d trees, reference %d", f.NumTrees(), len(ref))
	}
	// A warm forest fitted on other data first must land on the same slab.
	warm := new(Forest)
	if err := warm.Fit([]Example{{X: make([]float64, len(exs[0].X)+1), Y: true}}, Options{Seed: 99}); err != nil {
		t.Fatal(err)
	}
	if err := warm.Fit(exs, opt); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Forest{f, warm} {
		end := int32(0)
		for k, r := range ref {
			if g.roots[k] != end {
				t.Fatalf("tree %d starts at %d, want %d", k, g.roots[k], end)
			}
			var diff string
			if diff, end = sameTree(g, g.roots[k], r); diff != "" {
				t.Fatalf("tree %d differs from the reference at node %d: %s", k, end, diff)
			}
		}
		if int(end) != len(g.nodes) {
			t.Fatalf("slab holds %d nodes, trees cover %d", len(g.nodes), end)
		}
	}
	check := func(x []float64) {
		got, want := f.Confidence(x), referenceConfidence(ref, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Confidence(%v) = %v, reference %v", x, got, want)
		}
		if w := warm.Confidence(x); math.Float64bits(w) != math.Float64bits(want) {
			t.Fatalf("warm Confidence(%v) = %v, reference %v", x, w, want)
		}
	}
	for _, ex := range exs {
		check(ex.X)
	}
	for _, x := range probes {
		check(x)
	}
}

// extremes stresses the midpoint arithmetic: -Inf next to +Inf gives a
// NaN midpoint, two huge values overflow to +Inf, and ±0 compare equal.
var extremes = []float64{math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0, 1, 1e308, math.MaxFloat64, math.Inf(1)}

// randomDataset draws n examples over d features whose values come from
// a small level set (many ties), a fine grid, or the extremes, with ~2%
// NaN and labels that depend on the first two features plus noise.
func randomDataset(rng *rand.Rand, n, d, levels int) []Example {
	exs := make([]Example, n)
	for i := range exs {
		x := make([]float64, d)
		for j := range x {
			switch {
			case rng.Intn(50) == 0:
				x[j] = math.NaN()
			case levels == 0:
				x[j] = extremes[rng.Intn(len(extremes))]
			default:
				x[j] = float64(rng.Intn(levels)) / float64(levels)
			}
		}
		y := x[0] > 0.5
		if d > 1 && x[1] < 0.2 {
			y = !y
		}
		if rng.Intn(10) == 0 {
			y = !y
		}
		exs[i] = Example{X: x, Y: y}
	}
	return exs
}

// TestTrainMatchesReference is the differential oracle: over seeded
// datasets with heavy ties, NaNs and extreme values, and across
// positive option variants, the flat sweep kernel grows exactly the
// reference trees.
func TestTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 420; trial++ {
		n := 1 + rng.Intn(300)
		d := 1 + rng.Intn(9)
		levels := []int{0, 2, 5, 1000}[trial%4]
		exs := randomDataset(rng, n, d, levels)
		opt := Options{
			Trees:            1 + rng.Intn(6),
			MaxDepth:         []int{0, 1, 3, 20}[rng.Intn(4)],
			MinLeaf:          []int{0, 1, 2, 5}[rng.Intn(4)],
			FeaturesPerSplit: []int{0, 1, d, d + 2}[rng.Intn(4)],
			Seed:             rng.Int63(),
		}
		probes := randomDataset(rng, 20, d, levels)
		xs := make([][]float64, len(probes))
		for i, p := range probes {
			xs[i] = p.X
		}
		t.Run("", func(t *testing.T) { checkMatchesReference(t, exs, opt, xs) })
		if t.Failed() {
			t.Fatalf("trial %d: n=%d d=%d levels=%d opt=%+v", trial, n, d, levels, opt)
		}
	}
}

// FuzzTrain runs the differential oracle on fuzzed datasets: the first
// bytes pick the shape and options, each following byte one feature
// value from a small level set, the extremes, or NaN. The presorted
// kernel on the flat node slab must grow exactly the trees of the
// rescanning reference trainer, ties and ±Inf included, and give
// bit-equal confidences (DESIGN.md "Verifier forest kernel").
func FuzzTrain(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 0, 1, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{40, 1, 5, 2, 1, 9, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 200, 100, 50})
	f.Add([]byte{200, 9, 2, 3, 9, 3, 42, 13, 77, 240, 241, 242, 243, 244, 245, 246, 247, 248, 249})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		n := 1 + int(data[0])%300
		d := 1 + int(data[1])%9
		opt := Options{
			Trees:            1 + int(data[2])%4,
			MaxDepth:         int(data[3]) % 12,
			MinLeaf:          int(data[4]) % 6,
			FeaturesPerSplit: int(data[5]) % 11,
			Seed:             int64(binary.LittleEndian.Uint16(data[6:8])),
		}
		vals := data[8:]
		if len(vals) == 0 {
			return
		}
		value := func(k int) float64 {
			b := vals[k%len(vals)] ^ byte(k/len(vals))
			switch {
			case b >= 250:
				return math.NaN()
			case b >= 240:
				return extremes[int(b-240)%len(extremes)]
			default:
				return float64(b%16) / 16
			}
		}
		exs := make([]Example, n)
		k := 0
		for i := range exs {
			x := make([]float64, d)
			for j := range x {
				x[j] = value(k)
				k++
			}
			exs[i] = Example{X: x, Y: vals[i%len(vals)]&1 == 1}
		}
		probes := make([][]float64, 8)
		for i := range probes {
			probes[i] = make([]float64, d)
			for j := range probes[i] {
				probes[i][j] = value(k)
				k++
			}
		}
		checkMatchesReference(t, exs, opt, probes)
	})
}
