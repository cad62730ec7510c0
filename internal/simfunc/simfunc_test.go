package simfunc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMeasureByNameAndString(t *testing.T) {
	for _, name := range []string{"jac", "cos", "dice", "overlap"} {
		m, ok := MeasureByName(name)
		if !ok || m.String() != name {
			t.Errorf("MeasureByName(%q) = %v,%v (String=%q)", name, m, ok, m.String())
		}
	}
	if m, ok := MeasureByName("jaccard"); !ok || m != Jaccard {
		t.Error("jaccard alias broken")
	}
	if _, ok := MeasureByName("hamming"); ok {
		t.Error("unknown measure accepted")
	}
}

func TestFromOverlap(t *testing.T) {
	// x and y of sizes 4 and 5 sharing 4 tokens (paper's s(x,w)=0.8 case).
	if got := Jaccard.FromOverlap(4, 5, 4); !almost(got, 0.8) {
		t.Errorf("Jaccard = %g, want 0.8", got)
	}
	if got := Cosine.FromOverlap(4, 5, 4); !almost(got, 4/math.Sqrt(20)) {
		t.Errorf("Cosine = %g", got)
	}
	if got := Dice.FromOverlap(4, 5, 4); !almost(got, 8.0/9.0) {
		t.Errorf("Dice = %g", got)
	}
	if got := Overlap.FromOverlap(4, 5, 4); !almost(got, 1.0) {
		t.Errorf("Overlap = %g", got)
	}
	for _, m := range []SetMeasure{Jaccard, Cosine, Dice, Overlap} {
		if got := m.FromOverlap(0, 0, 5); got != 0 {
			t.Errorf("%v empty-set score = %g", m, got)
		}
	}
}

func TestExtendCapMatchesPaperExample(t *testing.T) {
	// Section 4.1: extending a 4-token string's prefix at position 1 caps
	// new pairs at 0.75; a 5-token string at position 1 caps at 0.8 and at
	// position 2 caps at 0.6.
	if got := Jaccard.ExtendCap(1, 4); !almost(got, 0.75) {
		t.Errorf("cap(1,4) = %g, want 0.75", got)
	}
	if got := Jaccard.ExtendCap(1, 5); !almost(got, 0.8) {
		t.Errorf("cap(1,5) = %g, want 0.8", got)
	}
	if got := Jaccard.ExtendCap(2, 5); !almost(got, 0.6) {
		t.Errorf("cap(2,5) = %g, want 0.6", got)
	}
	if got := Jaccard.ExtendCap(5, 5); got != 0 {
		t.Errorf("exhausted cap = %g, want 0", got)
	}
	if got := Overlap.ExtendCap(3, 5); got != 1 {
		t.Errorf("overlap cap = %g, want 1", got)
	}
}

// Property: ExtendCap really bounds the score of any pair whose first
// common token is at position >= i of x.
func TestExtendCapIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for trial := 0; trial < 2000; trial++ {
		lx := 1 + rng.Intn(8)
		x := append([]string(nil), universe[:lx]...) // tokens in global order
		i := rng.Intn(lx)
		// Partner shares tokens only from x[i:], plus its own extras.
		var y []string
		for _, tok := range x[i:] {
			if rng.Intn(2) == 0 {
				y = append(y, tok)
			}
		}
		extras := rng.Intn(4)
		for e := 0; e < extras; e++ {
			y = append(y, universe[9-e%3]+"_z")
		}
		if len(y) == 0 {
			continue
		}
		for _, m := range []SetMeasure{Jaccard, Cosine, Dice, Overlap} {
			score := m.Score(x, y)
			cap := m.ExtendCap(i, lx)
			if score > cap+1e-12 {
				t.Fatalf("%v: score %g exceeds cap %g (lx=%d i=%d y=%v)", m, score, cap, lx, i, y)
			}
		}
	}
}

// TestExtendCapCoversEveryAchievableScore is the exhaustive audit of the
// prefix cap in floating point: a pair first met past position i of x
// (length lx) shares o <= lx-i instances with a partner of length ly >= o,
// and its exact score FromOverlap(o, lx, ly) must never exceed the double
// ExtendCap(i, lx) returns — not even by one ulp, since the join prunes
// strictly below the k-th score and a pair tying it must survive. Real-
// valued soundness is not enough: cosine's cap sqrt(rem/lx) and its score
// o/sqrt(lx·ly) round separately and can land one ulp apart for the same
// real value.
func TestExtendCapCoversEveryAchievableScore(t *testing.T) {
	maxLen := 120
	if testing.Short() {
		maxLen = 60
	}
	for _, m := range []SetMeasure{Jaccard, Cosine, Dice, Overlap} {
		bad, cases := 0, 0
		for lx := 1; lx <= maxLen; lx++ {
			for i := 0; i < lx; i++ {
				cap := m.ExtendCap(i, lx)
				for ly := 1; ly <= maxLen; ly++ {
					for o := 1; o <= min(lx-i, ly); o++ {
						cases++
						if s := m.FromOverlap(o, lx, ly); s > cap {
							if bad == 0 {
								t.Errorf("%v: lx=%d i=%d ly=%d o=%d scores %v above cap %v", m, lx, i, ly, o, s, cap)
							}
							bad++
						}
					}
				}
			}
		}
		if bad > 0 {
			t.Errorf("%v: cap below an achievable score in %d of %d cases", m, bad, cases)
		}
	}
}

// Property: PairBound dominates the final score for any completion of the
// unseen suffixes.
func TestPairBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		lx := 1 + rng.Intn(8)
		ly := 1 + rng.Intn(8)
		px := rng.Intn(lx + 1) // seen prefix lengths
		py := rng.Intn(ly + 1)
		c := rng.Intn(min(px, py) + 1) // common tokens seen
		// Final overlap can add at most min of unseen suffixes.
		oFinal := c + rng.Intn(min(lx-px, ly-py)+1)
		for _, m := range []SetMeasure{Jaccard, Cosine, Dice, Overlap} {
			bound := m.PairBound(c, lx-px, ly-py, lx, ly)
			score := m.FromOverlap(oFinal, lx, ly)
			if score > bound+1e-12 {
				t.Fatalf("%v: score %g exceeds bound %g (c=%d lx=%d ly=%d px=%d py=%d)",
					m, score, bound, c, lx, ly, px, py)
			}
		}
	}
}

func TestOverlapCount(t *testing.T) {
	x := []string{"a", "b", "c"}
	y := []string{"b", "c", "d", "e"}
	if got := OverlapCount(x, y); got != 2 {
		t.Errorf("OverlapCount = %d, want 2", got)
	}
	if got := OverlapCount(nil, y); got != 0 {
		t.Errorf("OverlapCount(nil) = %d", got)
	}
}

func TestScoreSymmetry(t *testing.T) {
	f := func(xs, ys []string) bool {
		x := dedupe(xs)
		y := dedupe(ys)
		for _, m := range []SetMeasure{Jaccard, Cosine, Dice, Overlap} {
			a, b := m.Score(x, y), m.Score(y, x)
			if !almost(a, b) {
				return false
			}
			if a < 0 || a > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreIdentity(t *testing.T) {
	x := []string{"a", "b", "c"}
	for _, m := range []SetMeasure{Jaccard, Cosine, Dice, Overlap} {
		if got := m.Score(x, x); !almost(got, 1) {
			t.Errorf("%v self-score = %g, want 1", m, got)
		}
	}
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"welson", "wilson", 1},
		{"altanta", "atlanta", 2},
		{"same", "same", 0},
		{"日本", "日本語", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Properties of edit distance: symmetry, identity, triangle inequality on
// random short strings.
func TestLevenshteinProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randStr := func() string {
		n := rng.Intn(8)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte('a' + rng.Intn(4)))
		}
		return sb.String()
	}
	for trial := 0; trial < 500; trial++ {
		a, b, c := randStr(), randStr(), randStr()
		if Levenshtein(a, b) != Levenshtein(b, a) {
			t.Fatalf("not symmetric: %q %q", a, b)
		}
		if Levenshtein(a, a) != 0 {
			t.Fatalf("not identity: %q", a)
		}
		if Levenshtein(a, c) > Levenshtein(a, b)+Levenshtein(b, c) {
			t.Fatalf("triangle violated: %q %q %q", a, b, c)
		}
	}
}

func TestEditSim(t *testing.T) {
	if got := EditSim("", ""); got != 1 {
		t.Errorf("EditSim empty = %g", got)
	}
	if got := EditSim("abcd", "abcd"); got != 1 {
		t.Errorf("EditSim same = %g", got)
	}
	if got := EditSim("abcd", "wxyz"); got != 0 {
		t.Errorf("EditSim disjoint = %g", got)
	}
	if got := EditSim("welson", "wilson"); !almost(got, 1-1.0/6.0) {
		t.Errorf("EditSim = %g", got)
	}
}

func TestAbsDiff(t *testing.T) {
	if got := AbsDiff("18", "25"); got != 7 {
		t.Errorf("AbsDiff = %g", got)
	}
	if got := AbsDiff("1.5", "1.25"); !almost(got, 0.25) {
		t.Errorf("AbsDiff = %g", got)
	}
	if got := AbsDiff("x", "1"); !math.IsInf(got, 1) {
		t.Errorf("AbsDiff unparseable = %g, want +Inf", got)
	}
	if got := AbsDiff("", ""); !math.IsInf(got, 1) {
		t.Errorf("AbsDiff missing = %g, want +Inf", got)
	}
}
