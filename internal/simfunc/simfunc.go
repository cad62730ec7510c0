// Package simfunc implements the string similarity measures used by
// blockers and by the top-k string similarity join: the set-based measures
// Jaccard, cosine, Dice, and normalized overlap (with the overlap-count and
// prefix-extension bounds the join's branch-and-bound needs), plus
// Levenshtein edit distance and absolute numeric difference for blocker
// predicates.
package simfunc

import (
	"fmt"
	"math"
	"strconv"
)

// SetMeasure identifies a set-based similarity measure over token sets or
// multisets. All four measures are defined from the overlap o = |x ∩ y| and
// the sizes lx = |x|, ly = |y|, and all are monotone increasing in o, which
// the join's bounds rely on (Theorem 4.2 of the paper covers exactly these
// four measures).
type SetMeasure int

// The supported set-based measures.
const (
	Jaccard SetMeasure = iota // o / (lx + ly - o)
	Cosine                    // o / sqrt(lx*ly)
	Dice                      // 2o / (lx + ly)
	Overlap                   // o / min(lx, ly)
)

// String returns the measure's name as used in blocker expressions
// ("jac", "cos", "dice", "overlap").
func (m SetMeasure) String() string {
	switch m {
	case Jaccard:
		return "jac"
	case Cosine:
		return "cos"
	case Dice:
		return "dice"
	case Overlap:
		return "overlap"
	}
	return fmt.Sprintf("SetMeasure(%d)", int(m))
}

// errUnknownMeasure is the pre-boxed panic value for an out-of-range
// SetMeasure. FromOverlap and ExtendCap inline into //mc:hotpath probe
// loops; panicking with a string literal would box it into an interface
// at every call site, which the hotalloc escape gate counts as a hot
// path allocation. A package-level any carries no per-call allocation.
var errUnknownMeasure any = "simfunc: unknown measure"

// MeasureByName returns the SetMeasure for a blocker-expression name.
func MeasureByName(name string) (SetMeasure, bool) {
	switch name {
	case "jac", "jaccard":
		return Jaccard, true
	case "cos", "cosine":
		return Cosine, true
	case "dice":
		return Dice, true
	case "overlap":
		return Overlap, true
	}
	return 0, false
}

// FromOverlap computes the similarity score given the overlap o and set
// sizes lx, ly. It returns 0 when either set is empty.
func (m SetMeasure) FromOverlap(o, lx, ly int) float64 {
	if lx == 0 || ly == 0 {
		return 0
	}
	fo := float64(o)
	switch m {
	case Jaccard:
		return fo / float64(lx+ly-o)
	case Cosine:
		return fo / math.Sqrt(float64(lx)*float64(ly))
	case Dice:
		return 2 * fo / float64(lx+ly)
	case Overlap:
		return fo / float64(min(lx, ly))
	}
	panic(errUnknownMeasure)
}

// ExtendCap bounds the score of any pair first discovered when the prefix
// of a string x of size lx is extended past position i (0-based): such a
// pair shares at most rem = lx - i tokens. For Jaccard this is the paper's
// cap (lx-i)/lx (Section 4.1's worked example: 3/4 = 0.75 for a 4-token
// string at i=1). The partner's size is unknown, so each measure uses the
// partner size that maximizes the score subject to containing the overlap.
// Overlap similarity admits no nontrivial cap (a tiny partner fully
// contained in x scores 1), so it returns 1 and simply prunes less.
func (m SetMeasure) ExtendCap(i, lx int) float64 {
	if lx == 0 {
		return 0
	}
	rem := lx - i
	if rem <= 0 {
		return 0
	}
	switch m {
	case Jaccard:
		// o <= rem, union >= lx.
		return float64(rem) / float64(lx)
	case Cosine:
		// o <= rem, ly >= o  =>  o/sqrt(lx*ly) <= sqrt(rem/lx). The
		// cap and FromOverlap round separately, so equal reals can come
		// out one ulp apart with the cap below; one ulp up keeps the cap
		// at or above every achievable score (a looser cap only prunes
		// less).
		return math.Nextafter(math.Sqrt(float64(rem)/float64(lx)), 2)
	case Dice:
		// o <= rem, ly >= o  =>  2o/(lx+ly) <= 2rem/(lx+rem).
		return 2 * float64(rem) / float64(lx+rem)
	case Overlap:
		return 1
	}
	panic(errUnknownMeasure)
}

// PairBound bounds the final score of a specific candidate pair of which c
// common tokens have been seen so far and remX, remY tokens remain unseen
// on each side: the final overlap is at most c + min(remX, remY).
func (m SetMeasure) PairBound(c, remX, remY, lx, ly int) float64 {
	o := c + min(remX, remY)
	if o > min(lx, ly) {
		o = min(lx, ly)
	}
	return m.FromOverlap(o, lx, ly)
}

// OverlapCount returns |x ∩ y| treating the slices as sets (callers pass
// deduplicated token slices).
func OverlapCount(x, y []string) int {
	if len(x) > len(y) {
		x, y = y, x
	}
	set := make(map[string]struct{}, len(x))
	for _, t := range x {
		set[t] = struct{}{}
	}
	o := 0
	for _, t := range y {
		if _, ok := set[t]; ok {
			o++
		}
	}
	return o
}

// Score computes the measure over two token sets.
func (m SetMeasure) Score(x, y []string) float64 {
	return m.FromOverlap(OverlapCount(x, y), len(x), len(y))
}

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions) between a and b, operating on runes.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditSim returns a normalized edit similarity in [0,1]:
// 1 - Levenshtein(a,b)/max(|a|,|b|). Two empty strings score 1.
func EditSim(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(max(la, lb))
}

// AbsDiff parses a and b as floats and returns |a-b|. It returns
// +Inf when either value is missing or unparseable, so that
// "absdiff > t" kill-rules drop pairs with missing numerics
// conservatively only when the caller wants that; blockers treat
// +Inf explicitly.
func AbsDiff(a, b string) float64 {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return math.Inf(1)
	}
	return math.Abs(fa - fb)
}
