package config

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"matchcatcher/internal/table"
)

// Mask is a bitmask over the promising attribute list T (bit i set means
// T[i] is in the config). Masks keep configs cheap to compare, and the
// SSJ scores a pair under a config with popcounts of its tokens' masks.
type Mask uint64

// Has reports whether bit i is set.
func (m Mask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Without clears bit i.
func (m Mask) Without(i int) Mask { return m &^ (1 << uint(i)) }

// Size returns the number of attributes in the config.
func (m Mask) Size() int { return bits.OnesCount64(uint64(m)) }

// Node is one config in the config tree. Children are the sub-configs
// generated when this node was expanded (only one node per level is
// expanded, per Section 3.2).
type Node struct {
	Mask     Mask
	Parent   *Node
	Children []*Node
}

// Options tunes the config generator. Zero values select the paper's
// defaults.
type Options struct {
	// CategoricalMaxUnique bounds the distinct-value count of categorical
	// attributes (default 30).
	CategoricalMaxUnique int
	// MinValueJaccard drops categorical/boolean attributes whose value
	// sets across the tables have Jaccard below it (default 0.3).
	MinValueJaccard float64
	// Delta is the δ of Condition 1 / Theorem 3.5 (default 0.2).
	Delta float64
	// DisableLongAttr turns off FindLongAttr, for the §6.5 ablation.
	DisableLongAttr bool
	// MaxPromising caps |T| (default 10, at most MaxAttrs; the config
	// tree holds |T|(|T|+1)/2 configs, so very wide schemas are trimmed
	// to the highest-e-score attributes).
	MaxPromising int
	// CuratedAttrs, when non-empty, is a manually curated promising set T
	// (Section 3.2 notes users may curate the schema instead of relying
	// on the classifier). Attributes must exist in both tables, and at
	// most MaxAttrs may be given; the classifier and drop rules are
	// bypassed.
	CuratedAttrs []string
}

func (o Options) withDefaults() Options {
	if o.CategoricalMaxUnique == 0 {
		o.CategoricalMaxUnique = 30
	}
	if o.MinValueJaccard == 0 {
		o.MinValueJaccard = 0.3
	}
	if o.Delta == 0 {
		o.Delta = 0.2
	}
	if o.MaxPromising == 0 {
		o.MaxPromising = 10
	}
	return o
}

// Result is the config generator's output.
type Result struct {
	// Promising is T, the promising attributes; bit i of every Mask
	// refers to Promising[i].
	Promising []string
	// Root is the config tree's root (the config equal to T).
	Root *Node
	// Classes records each input attribute's classification.
	Classes map[string]AttrClass
	// Dropped records why attributes were excluded from T.
	Dropped map[string]string
	// EScores holds e(f) (Definition 3.1) for each promising attribute.
	EScores map[string]float64
	// LongAttrs lists attributes FindLongAttr judged too long (in the
	// order they were detected).
	LongAttrs []string
	// avgLen[t][i] is the average token length of Promising[i] in table t
	// (0 = A, 1 = B), kept for the R2 approximation.
	avgLen [2][]float64
	delta  float64
}

// Configs returns all configs in breadth-first order, the order the joint
// top-k SSJ processes them (Section 4.2).
func (r *Result) Configs() []Mask {
	var out []Mask
	queue := []*Node{r.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n.Mask)
		queue = append(queue, n.Children...)
	}
	return out
}

// Nodes returns all tree nodes in breadth-first order.
func (r *Result) Nodes() []*Node {
	var out []*Node
	queue := []*Node{r.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		queue = append(queue, n.Children...)
	}
	return out
}

// AttrsOf renders a mask as attribute names.
func (r *Result) AttrsOf(m Mask) []string {
	var out []string
	for i, a := range r.Promising {
		if m.Has(i) {
			out = append(out, a)
		}
	}
	return out
}

// String renders a mask like "{name,city}".
func (r *Result) String(m Mask) string {
	return "{" + strings.Join(r.AttrsOf(m), ",") + "}"
}

// MaxAttrs is the most attributes a promising set T may hold: the
// tokenized corpus the joins share (internal/ssjoin) keeps each token's
// attribute set in a 16-bit mask.
const MaxAttrs = 16

// Generate runs the full Section 3 pipeline: classify attributes, select
// the promising set T, compute e-scores, and build the config tree with
// long-attribute handling. Each column of each table is scanned once, into
// a profile that the classifier, the e-score and the long-attribute check
// all read.
func Generate(a, b *table.Table, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if opt.MaxPromising > MaxAttrs {
		return nil, fmt.Errorf("config: MaxPromising %d exceeds the corpus limit of %d attributes", opt.MaxPromising, MaxAttrs)
	}
	if n := len(opt.CuratedAttrs); n > MaxAttrs {
		return nil, fmt.Errorf("config: %d curated attributes exceed the corpus limit of %d attributes", n, MaxAttrs)
	}
	shared := sharedAttrs(a, b)
	if len(shared) == 0 {
		return nil, fmt.Errorf("config: tables %s and %s share no attributes", a.Name(), b.Name())
	}
	r := &Result{
		Classes: map[string]AttrClass{},
		Dropped: map[string]string{},
		EScores: map[string]float64{},
		delta:   opt.Delta,
	}
	prof := newProfiler(opt.CategoricalMaxUnique, max(a.NumRows(), b.NumRows()))
	stats := map[string][2]table.AttrStats{}
	// classify profiles attr in both tables, records its class and
	// statistics, and returns the class and e-score.
	classify := func(attr string) (AttrClass, float64) {
		pa, pb := prof.profile(a, attr), prof.profile(b, attr)
		cl := widen(pa.class(opt.CategoricalMaxUnique), pb.class(opt.CategoricalMaxUnique))
		r.Classes[attr] = cl
		stats[attr] = [2]table.AttrStats{pa.stats, pb.stats}
		return cl, pa.stats.EScoreComponent() * pb.stats.EScoreComponent()
	}
	if len(opt.CuratedAttrs) > 0 {
		for _, attr := range opt.CuratedAttrs {
			if !a.HasAttr(attr) || !b.HasAttr(attr) {
				return nil, fmt.Errorf("config: curated attribute %q is not in both schemas", attr)
			}
			r.Promising = append(r.Promising, attr)
			_, r.EScores[attr] = classify(attr)
		}
		if len(r.Promising) > opt.MaxPromising {
			return nil, fmt.Errorf("config: %d curated attributes exceed MaxPromising %d", len(r.Promising), opt.MaxPromising)
		}
		r.fillAvgLens(stats)
		r.buildTree(opt)
		return r, nil
	}
	// Select the most promising attributes T.
	type cand struct {
		attr   string
		escore float64
	}
	var cands []cand
	for _, attr := range shared {
		cl, e := classify(attr)
		switch cl {
		case ClassNumeric:
			r.Dropped[attr] = "numeric"
			continue
		case ClassCategorical, ClassBoolean:
			if j := valueSetJaccard(a, b, attr); j < opt.MinValueJaccard {
				r.Dropped[attr] = fmt.Sprintf("%s with dissimilar value sets (jaccard %.2f)", cl, j)
				continue
			}
		}
		cands = append(cands, cand{attr, e})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("config: no promising attributes survive classification")
	}
	// Keep at most MaxPromising attributes, by e-score; preserve schema
	// order within T for readable reports.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].escore > cands[j].escore })
	if len(cands) > opt.MaxPromising {
		for _, c := range cands[opt.MaxPromising:] {
			r.Dropped[c.attr] = "trimmed: schema wider than MaxPromising"
		}
		cands = cands[:opt.MaxPromising]
	}
	keep := map[string]bool{}
	for _, c := range cands {
		keep[c.attr] = true
	}
	for _, attr := range shared {
		if keep[attr] {
			r.Promising = append(r.Promising, attr)
		}
	}
	for _, c := range cands {
		r.EScores[c.attr] = c.escore
	}
	r.fillAvgLens(stats)
	r.buildTree(opt)
	return r, nil
}

// fillAvgLens records average token lengths for the R2 approximation
// from each promising attribute's statistics in the two tables.
func (r *Result) fillAvgLens(stats map[string][2]table.AttrStats) {
	for i := range r.avgLen {
		r.avgLen[i] = make([]float64, len(r.Promising))
		for j, attr := range r.Promising {
			st := stats[attr][i]
			// Mean over all tuples; missing contributes zero length.
			r.avgLen[i][j] = st.AvgTokenLen * st.NonMissingRatio
		}
	}
}

func sharedAttrs(a, b *table.Table) []string {
	var out []string
	for _, attr := range a.Attrs() {
		if b.HasAttr(attr) {
			out = append(out, attr)
		}
	}
	return out
}

// eScoreOf returns e(Promising[i]).
func (r *Result) eScoreOf(i int) float64 { return r.EScores[r.Promising[i]] }

// lowestEScoreAttr returns the in-config attribute index with the lowest
// e-score (ties broken by schema position for determinism).
func (r *Result) lowestEScoreAttr(m Mask) int {
	best, bestScore := -1, math.Inf(1)
	for i := range r.Promising {
		if !m.Has(i) {
			continue
		}
		if s := r.eScoreOf(i); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// buildTree generates the config tree top-down (Section 3.2): the root is
// T; each expansion produces every size-(k-1) sub-config as children, and
// exactly one child — the one without the excluded attribute — is expanded
// further. The excluded attribute is the long attribute when FindLongAttr
// detects one, else the attribute with the lowest e-score.
func (r *Result) buildTree(opt Options) {
	full := Mask(1)<<uint(len(r.Promising)) - 1
	r.Root = &Node{Mask: full}
	cur := r.Root
	for cur.Mask.Size() > 1 {
		for i := range r.Promising {
			if cur.Mask.Has(i) {
				cur.Children = append(cur.Children, &Node{Mask: cur.Mask.Without(i), Parent: cur})
			}
		}
		exclude := r.lowestEScoreAttr(cur.Mask)
		if !opt.DisableLongAttr {
			if f := r.findLongAttr(cur.Mask, exclude); f >= 0 {
				r.LongAttrs = append(r.LongAttrs, r.Promising[f])
				exclude = f
			}
		}
		next := cur.Mask.Without(exclude)
		for _, ch := range cur.Children {
			if ch.Mask == next {
				cur = ch
				break
			}
		}
	}
}

// findLongAttr implements the FindLongAttr procedure: given the current
// config and the default attribute s to exclude, it checks every other
// attribute f of the default next config q = cur \ {s}; f is judged too
// long when the R2 approximation holds for at least half of the configs in
// q's would-be default subtree that contain f. It returns the attribute
// index to exclude instead, or -1.
func (r *Result) findLongAttr(cur Mask, s int) int {
	q := cur.Without(s)
	if q.Size() < 2 {
		return -1
	}
	subtree := r.defaultSubtree(q)
	best, bestBeta := -1, -1.0
	for f := range r.Promising {
		if !q.Has(f) {
			continue
		}
		var inF []Mask
		for _, m := range subtree {
			if m.Has(f) {
				inF = append(inF, m)
			}
		}
		if len(inF) == 0 {
			continue
		}
		overwhelmed := 0
		beta := r.beta(f, q)
		for _, rm := range inF {
			if r.r2Holds(beta, q, rm) {
				overwhelmed++
			}
		}
		if overwhelmed*2 >= len(inF) && beta > bestBeta {
			best, bestBeta = f, beta
		}
	}
	return best
}

// defaultSubtree simulates default (e-score-only) generation from q and
// returns every config in the subtree rooted at q, q included.
func (r *Result) defaultSubtree(q Mask) []Mask {
	out := []Mask{q}
	cur := q
	for cur.Size() > 1 {
		for i := range r.Promising {
			if cur.Has(i) {
				out = append(out, cur.Without(i))
			}
		}
		cur = cur.Without(r.lowestEScoreAttr(cur))
	}
	return out
}

// beta approximates Theorem 3.5's length fraction:
// min(AL_f(A)/AL_q(A), AL_f(B)/AL_q(B)).
func (r *Result) beta(f int, q Mask) float64 {
	beta := math.Inf(1)
	for t := 0; t < 2; t++ {
		lq := r.avgConfigLen(t, q)
		if lq <= 0 {
			return 0
		}
		if v := r.avgLen[t][f] / lq; v < beta {
			beta = v
		}
	}
	return beta
}

// AvgTokens is the average number of word tokens per tuple of table t
// (0 = A, 1 = B) over all promising attributes, missing values counting
// zero. It overestimates a tuple's distinct tokens, which is what lets
// callers size token buffers from it.
func (r *Result) AvgTokens(t int) float64 {
	sum := 0.0
	for _, l := range r.avgLen[t] {
		sum += l
	}
	return sum
}

func (r *Result) avgConfigLen(t int, q Mask) float64 {
	sum := 0.0
	for i := range r.Promising {
		if q.Has(i) {
			sum += r.avgLen[t][i]
		}
	}
	return sum
}

// r2Holds checks the R2 approximation of Theorem 3.5 for sub-config rm of
// q: beta >= 1 - ((|q|-1)/|q\rm|) * (δ/(1+δ)) * max(ALq(A),ALq(B)) / (ALq(A)+ALq(B)).
func (r *Result) r2Holds(beta float64, q, rm Mask) bool {
	removed := q.Size() - (q & rm).Size()
	if removed == 0 {
		return false
	}
	la, lb := r.avgConfigLen(0, q), r.avgConfigLen(1, q)
	if la+lb == 0 {
		return false
	}
	rhs := 1 - float64(q.Size()-1)/float64(removed)*(r.delta/(1+r.delta))*math.Max(la, lb)/(la+lb)
	return beta >= rhs
}

// TreeString renders the config tree, one node per line, children
// indented, the expanded path marked — a debugging aid for understanding
// which configs the joins will process.
func (r *Result) TreeString() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(r.String(n.Mask))
		if len(n.Children) > 0 {
			sb.WriteString(" *")
		}
		sb.WriteByte('\n')
		for _, ch := range n.Children {
			walk(ch, depth+1)
		}
	}
	walk(r.Root, 0)
	return sb.String()
}
