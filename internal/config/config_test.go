package config

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"matchcatcher/internal/datagen"
	"matchcatcher/internal/table"
)

func mkTable(t *testing.T, name string, attrs []string, rows [][]string) *table.Table {
	t.Helper()
	tb := table.MustNew(name, attrs)
	for _, r := range rows {
		tb.MustAppend(r)
	}
	return tb
}

func TestClassify(t *testing.T) {
	a := mkTable(t, "A", []string{"name", "price", "gender", "active", "year"}, [][]string{
		{"dave smith lives here", "10.5", "Male", "true", "1999"},
		{"joe wilson somewhere else", "20", "Female", "false", "2001"},
		{"ann brown another place", "30.25", "Male", "yes", "2003"},
	})
	cases := map[string]AttrClass{
		"name":   ClassString,
		"price":  ClassNumeric,
		"gender": ClassCategorical,
		"active": ClassBoolean,
		"year":   ClassNumeric,
	}
	p := newProfiler(30, a.NumRows())
	for attr, want := range cases {
		pr := p.profile(a, attr)
		if got := pr.class(30); got != want {
			t.Errorf("classify(%s) = %v, want %v", attr, got, want)
		}
	}
	if got := ClassString.String(); got != "string" {
		t.Errorf("String() = %q", got)
	}
}

func TestClassifyDisagreement(t *testing.T) {
	a := mkTable(t, "A", []string{"x"}, [][]string{{"12"}, {"15"}})
	b := mkTable(t, "B", []string{"x"}, [][]string{{"twelve or so words that vary a lot across the rows"}, {"some other very long sentence appears right here now"}})
	if got := Classify(a, b, "x", 30); got != ClassString {
		t.Errorf("numeric-vs-string should widen to string, got %v", got)
	}
}

func TestValueSetJaccard(t *testing.T) {
	a := mkTable(t, "A", []string{"g"}, [][]string{{"Male"}, {"Female"}, {""}})
	b := mkTable(t, "B", []string{"g"}, [][]string{{"M"}, {"F"}, {"U"}})
	if got := valueSetJaccard(a, b, "g"); got != 0 {
		t.Errorf("disjoint sets jaccard = %g", got)
	}
	b2 := mkTable(t, "B2", []string{"g"}, [][]string{{"male"}, {"female"}})
	if got := valueSetJaccard(a, b2, "g"); got != 1 {
		t.Errorf("same sets (case-insensitive) jaccard = %g", got)
	}
}

// fourAttrTables builds tables with attributes n, c, s, d mirroring the
// paper's Figure 3 example: d is a long description, s (state) has few
// unique values, n (name) and c (city) are informative.
func fourAttrTables(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	attrs := []string{"n", "c", "s", "d"}
	long := strings.Repeat("lorem ipsum dolor sit amet consectetur adipiscing elit sed ", 2)
	rowsA := [][]string{
		{"dave smith", "atlanta", "ga", long + "alpha"},
		{"joe wilson", "new york", "ny", long + "beta"},
		{"ann brown", "chicago", "il", long + "gamma"},
		{"bob stone", "austin", "tx", long + "delta"},
		{"carol reyes", "boston", "ma", long + "epsilon"},
		{"dan green", "denver", "ga", long + "zeta"},
	}
	rowsB := [][]string{
		{"david smith", "atlanta", "ga", long + "one"},
		{"joseph wilson", "new york", "ny", long + "two"},
		{"anne brown", "chicago", "il", long + "three"},
		{"robert stone", "austin", "tx", long + "four"},
		{"carole reyes", "boston", "ma", long + "five"},
		{"daniel green", "denver", "tx", long + "six"},
	}
	return mkTable(t, "A", attrs, rowsA), mkTable(t, "B", attrs, rowsB)
}

func TestGenerateTreeShape(t *testing.T) {
	a, b := fourAttrTables(t)
	r, err := Generate(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Promising) != 4 {
		t.Fatalf("promising = %v", r.Promising)
	}
	configs := r.Configs()
	// |T|(|T|+1)/2 = 10 configs for |T| = 4.
	if len(configs) != 10 {
		t.Fatalf("config count = %d, want 10; configs: %v", len(configs), configs)
	}
	// Exactly one config per size at the expanded path, and sizes
	// 4,3,3,3,3,2,2,2,1... breadth-first: root(4), 4x size3, 3x size2, 2x size1.
	sizeCount := map[int]int{}
	for _, m := range configs {
		sizeCount[m.Size()]++
	}
	if sizeCount[4] != 1 || sizeCount[3] != 4 || sizeCount[2] != 3 || sizeCount[1] != 2 {
		t.Errorf("size histogram = %v", sizeCount)
	}
	// All configs distinct.
	seen := map[Mask]bool{}
	for _, m := range configs {
		if seen[m] {
			t.Errorf("duplicate config %s", r.String(m))
		}
		seen[m] = true
	}
	// Root is the full set.
	if r.Root.Mask.Size() != 4 {
		t.Errorf("root = %s", r.String(r.Root.Mask))
	}
}

func TestLongAttrExcludedEarly(t *testing.T) {
	a, b := fourAttrTables(t)
	r, err := Generate(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.LongAttrs) == 0 || r.LongAttrs[0] != "d" {
		t.Fatalf("long attrs = %v, want d detected", r.LongAttrs)
	}
	// With long handling, the expanded child of the root must exclude d:
	// the size-3 config that is expanded (has children) lacks d.
	dBit := -1
	for i, attr := range r.Promising {
		if attr == "d" {
			dBit = i
		}
	}
	var expanded *Node
	for _, ch := range r.Root.Children {
		if len(ch.Children) > 0 {
			expanded = ch
		}
	}
	if expanded == nil {
		t.Fatal("no expanded child")
	}
	if expanded.Mask.Has(dBit) {
		t.Errorf("expanded child %s still contains long attribute d", r.String(expanded.Mask))
	}
	// Ablated: with DisableLongAttr the expanded child excludes the
	// lowest-e-score attribute instead (s, which has few unique values).
	r2, err := Generate(a, b, Options{DisableLongAttr: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.LongAttrs) != 0 {
		t.Errorf("ablated run recorded long attrs %v", r2.LongAttrs)
	}
	var expanded2 *Node
	for _, ch := range r2.Root.Children {
		if len(ch.Children) > 0 {
			expanded2 = ch
		}
	}
	sBit := -1
	for i, attr := range r2.Promising {
		if attr == "s" {
			sBit = i
		}
	}
	if expanded2.Mask.Has(sBit) {
		t.Errorf("default expansion should drop lowest-e-score attr s, got %s", r2.String(expanded2.Mask))
	}
}

func TestEScoreOrdering(t *testing.T) {
	a, b := fourAttrTables(t)
	r, err := Generate(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// s (2-3 unique values over 6 rows) must have the lowest e-score
	// among n, c, s.
	if !(r.EScores["s"] < r.EScores["n"] && r.EScores["s"] < r.EScores["c"]) {
		t.Errorf("e-scores = %v", r.EScores)
	}
}

func TestGenerateDropsNumericAndDissimilarCategorical(t *testing.T) {
	attrs := []string{"name", "price", "gender"}
	a := mkTable(t, "A", attrs, [][]string{
		{"dave smith", "10", "Male"},
		{"joe wilson", "20", "Female"},
		{"ann brown", "30", "Female"},
		{"bob stone", "40", "Male"},
	})
	b := mkTable(t, "B", attrs, [][]string{
		{"david smith", "12", "M"},
		{"joseph wilson", "22", "F"},
		{"anne brown", "32", "F"},
		{"robert stone", "42", "M"},
	})
	r, err := Generate(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Promising) != 1 || r.Promising[0] != "name" {
		t.Fatalf("promising = %v", r.Promising)
	}
	if r.Dropped["price"] != "numeric" {
		t.Errorf("price drop reason = %q", r.Dropped["price"])
	}
	if !strings.Contains(r.Dropped["gender"], "dissimilar") {
		t.Errorf("gender drop reason = %q", r.Dropped["gender"])
	}
	// Single-attribute tree: one config.
	if got := len(r.Configs()); got != 1 {
		t.Errorf("configs = %d, want 1", got)
	}
}

func TestGenerateErrors(t *testing.T) {
	a := mkTable(t, "A", []string{"x"}, [][]string{{"1"}})
	b := mkTable(t, "B", []string{"y"}, [][]string{{"1"}})
	if _, err := Generate(a, b, Options{}); err == nil {
		t.Error("want error for disjoint schemas")
	}
	// Only numeric shared attributes -> nothing promising.
	c := mkTable(t, "C", []string{"x"}, [][]string{{"1"}, {"2"}})
	d := mkTable(t, "D", []string{"x"}, [][]string{{"3"}, {"4"}})
	if _, err := Generate(c, d, Options{}); err == nil {
		t.Error("want error when no attribute survives")
	}
}

func TestMaxPromisingTrims(t *testing.T) {
	attrs := []string{"a1", "a2", "a3", "a4", "a5"}
	rows := func(p string) [][]string {
		var out [][]string
		for i := 0; i < 6; i++ {
			row := make([]string, 5)
			for j := range row {
				row[j] = p + attrs[j] + string(rune('a'+i)) + " tail words"
			}
			out = append(out, row)
		}
		return out
	}
	a := mkTable(t, "A", attrs, rows("x"))
	b := mkTable(t, "B", attrs, rows("y"))
	r, err := Generate(a, b, Options{MaxPromising: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Promising) != 3 {
		t.Errorf("promising = %v", r.Promising)
	}
	if got := len(r.Configs()); got != 6 { // 3*4/2
		t.Errorf("configs = %d, want 6", got)
	}
}

func TestMaskOps(t *testing.T) {
	m := Mask(0b1011)
	if !m.Has(0) || m.Has(2) || m.Size() != 3 {
		t.Errorf("mask ops broken: %b", m)
	}
	if got := m.Without(1); got != 0b1001 {
		t.Errorf("Without = %b", got)
	}
	if bits.OnesCount64(uint64(m.Without(9))) != 3 {
		t.Error("Without of absent bit changed size")
	}
}

// TestGenerateOnRealProfiles smoke-tests the generator on every Table-1
// profile (small scales): it must produce a nonempty tree and place every
// promising attribute in the root config.
func TestGenerateOnRealProfiles(t *testing.T) {
	for _, p := range []datagen.Profile{
		datagen.AmazonGoogle().Scaled(0.15),
		datagen.ACMDBLP().Scaled(0.15),
		datagen.FodorsZagats(),
		datagen.Music1().Scaled(0.02),
	} {
		d := datagen.MustGenerate(p)
		r, err := Generate(d.A, d.B, Options{})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if len(r.Promising) < 2 {
			t.Errorf("%s: promising = %v", p.Name, r.Promising)
		}
		n := len(r.Promising)
		if got, want := len(r.Configs()), n*(n+1)/2; got != want {
			t.Errorf("%s: %d configs, want %d", p.Name, got, want)
		}
		// Numeric attributes must never survive.
		for _, attr := range r.Promising {
			if r.Classes[attr] == ClassNumeric {
				t.Errorf("%s: numeric attribute %s in T", p.Name, attr)
			}
		}
	}
}

func TestTreeString(t *testing.T) {
	a, b := fourAttrTables(t)
	r, err := Generate(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.TreeString()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 10 { // |T|(|T|+1)/2 nodes
		t.Fatalf("tree lines = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "{") || !strings.HasSuffix(lines[0], "*") {
		t.Errorf("root line = %q", lines[0])
	}
}

// TestGenerateRejectsMoreThanMaxAttrs: masks past bit 15 would be cut
// off by the corpus's 16-bit attribute sets, so Generate refuses a
// MaxPromising or a curated list over the limit and names it.
func TestGenerateRejectsMoreThanMaxAttrs(t *testing.T) {
	attrs := make([]string, MaxAttrs+1)
	row := make([]string, len(attrs))
	for i := range attrs {
		attrs[i] = fmt.Sprintf("f%d", i)
		row[i] = fmt.Sprintf("word%d shared", i)
	}
	a := mkTable(t, "A", attrs, [][]string{row})
	b := mkTable(t, "B", attrs, [][]string{row})
	for _, opt := range []Options{
		{MaxPromising: MaxAttrs + 1},
		{CuratedAttrs: attrs},
		{CuratedAttrs: attrs, MaxPromising: MaxAttrs + 1},
	} {
		_, err := Generate(a, b, opt)
		if err == nil || !strings.Contains(err.Error(), "corpus limit of 16 attributes") {
			t.Errorf("%+v: err = %v, want the 16-attribute corpus limit", opt, err)
		}
	}
	r, err := Generate(a, b, Options{CuratedAttrs: attrs[:MaxAttrs], MaxPromising: MaxAttrs})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Promising); got != MaxAttrs {
		t.Errorf("promising = %d attributes, want %d", got, MaxAttrs)
	}
}
