package blocker

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// bruteForceKeep computes the keep set by evaluating the expression on
// every pair — the reference for the index-driven executor.
func bruteForceKeep(a, b *table.Table, e Expr) *PairSet {
	out := NewPairSet()
	for ra := 0; ra < a.NumRows(); ra++ {
		for rb := 0; rb < b.NumRows(); rb++ {
			if e.Holds(a, ra, b, rb) {
				out.Add(ra, rb)
			}
		}
	}
	return out
}

func samePairSet(x, y *PairSet) bool {
	if x.Len() != y.Len() {
		return false
	}
	same := true
	x.ForEach(func(a, b int) {
		if !y.Contains(a, b) {
			same = false
		}
	})
	return same
}

// randomProductTable builds a small dirty product table.
func randomProductTable(name string, n int, rng *rand.Rand) *table.Table {
	brands := []string{"acme", "globex", "initech", "umbrella", ""}
	words := []string{"usb", "cable", "fast", "pro", "mini", "charger", "hub", "adapter", "hd", "wireless"}
	t := table.MustNew(name, []string{"title", "brand", "price", "year"})
	for i := 0; i < n; i++ {
		nw := 1 + rng.Intn(4)
		var title []string
		for w := 0; w < nw; w++ {
			title = append(title, words[rng.Intn(len(words))])
		}
		price := fmt.Sprintf("%d", rng.Intn(60))
		if rng.Intn(8) == 0 {
			price = ""
		}
		t.MustAppend([]string{
			strings.Join(title, " "),
			brands[rng.Intn(len(brands))],
			price,
			fmt.Sprintf("%d", 2000+rng.Intn(10)),
		})
	}
	return t
}

// TestRuleExecutionMatchesBruteForce is the core soundness property of the
// index-driven executor: for a zoo of rules spanning every driver kind,
// Block produces exactly the brute-force keep set.
func TestRuleExecutionMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randomProductTable("A", 40, rng)
		b := randomProductTable("B", 50, rng)
		for _, src := range ruleZoo {
			expr := MustParse(src)
			for _, mode := range []string{"drop", "keep"} {
				var r *Rule
				if mode == "drop" {
					r = DropRule(mode+":"+src, expr)
				} else {
					r = KeepRule(mode+":"+src, expr)
				}
				got, err := r.Block(a, b)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, r.Name(), err)
				}
				want := bruteForceKeep(a, b, r.Keep)
				if !samePairSet(got, want) {
					t.Errorf("seed %d rule %s: got %d pairs, want %d",
						seed, r.Name(), got.Len(), want.Len())
				}
			}
		}
	}
	// Second case: the zoo on larger, dirtier tables (accented and
	// non-Latin titles, empty titles, padded prices), serially and
	// through Concurrent.
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("dirty200x300/seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			a := dirtyProductTable("A", 200, rng)
			b := dirtyProductTable("B", 300, rng)
			for _, src := range ruleZoo {
				expr := MustParse(src)
				// The drop rule keeps exactly the pairs the keep rule drops.
				hits := bruteForceKeep(a, b, expr)
				misses := NewPairSet()
				for ra := 0; ra < a.NumRows(); ra++ {
					for rb := 0; rb < b.NumRows(); rb++ {
						if !hits.Contains(ra, rb) {
							misses.Add(ra, rb)
						}
					}
				}
				for _, c := range []struct {
					r    *Rule
					want *PairSet
				}{{DropRule("drop:"+src, expr), misses}, {KeepRule("keep:"+src, expr), hits}} {
					for _, q := range []Blocker{c.r, &Concurrent{Inner: c.r, Workers: 3}} {
						got, err := q.Block(a, b)
						if err != nil {
							t.Fatalf("%s: %v", q.Name(), err)
						}
						if !samePairSet(got, c.want) {
							t.Errorf("%s: got %d pairs, want %d", q.Name(), got.Len(), c.want.Len())
						}
					}
				}
			}
		})
	}
}

// dirtyProductTable is randomProductTable with the values that trip
// byte-vs-rune and raw-vs-trimmed bugs: accented and non-Latin titles,
// empty titles, and whitespace-padded prices.
func dirtyProductTable(name string, n int, rng *rand.Rand) *table.Table {
	words := []string{"usb", "cable", "Fast", "pro", "mini", "café", "crème", "naïve", "日本", "hub", "hd", "über", "o'brien", "x-1"}
	brands := []string{"acme", "Acme ", "globex", "zürich", "", "  "}
	pads := []string{"", " ", "  ", "\t"}
	t := table.MustNew(name, []string{"title", "brand", "price", "year"})
	for i := 0; i < n; i++ {
		var title []string
		if rng.Intn(10) > 0 {
			for w := 1 + rng.Intn(4); w > 0; w-- {
				title = append(title, words[rng.Intn(len(words))])
			}
		}
		price := pads[rng.Intn(len(pads))] + fmt.Sprintf("%d", rng.Intn(60)) + pads[rng.Intn(len(pads))]
		if rng.Intn(8) == 0 {
			price = ""
		}
		t.MustAppend([]string{
			strings.Join(title, " "),
			brands[rng.Intn(len(brands))],
			price,
			fmt.Sprintf("%d", 2000+rng.Intn(10)),
		})
	}
	return t
}

// ruleZoo spans every driver kind (equality, set similarity, overlap
// count, edit distance, numeric range, nested loop) alone and combined.
var ruleZoo = []string{
	"title_overlap_word<2",
	"title_jac_word<0.4",
	"title_cos_word<0.5",
	"title_dice_word<0.5",
	"brand_jac_3gram<0.6",
	"attr_equal_brand",
	"price_absdiff>20",
	"price_absdiff>20 OR title_jac_word<0.5",
	"title_jac_word<0.2 AND brand_jac_3gram<0.4",
	"(title_cos_word<0.5 AND brand_jac_3gram<0.7) OR title_jac_word<0.3",
	"year_absdiff>2 OR title_cos_word<0.7",
	"title_editdist>4",
	"lastword(title)_ed>1",
	"NOT attr_equal_brand AND title_overlap_word<1",
	"title_overlapcoeff_word<0.5",
}

// oneColumnTables builds single-attribute tables A and B.
func oneColumnTables(attr string, a, b []string) (*table.Table, *table.Table) {
	ta := table.MustNew("A", []string{attr})
	for _, v := range a {
		ta.MustAppend([]string{v})
	}
	tb := table.MustNew("B", []string{attr})
	for _, v := range b {
		tb.MustAppend([]string{v})
	}
	return ta, tb
}

// TestAbsDiffTrimsPaddedNumbers: Feature.Eval trims before parsing, so
// the compiled numeric column must too.
func TestAbsDiffTrimsPaddedNumbers(t *testing.T) {
	a, b := oneColumnTables("price", []string{" 12"}, []string{"13 "})
	r := MustParseDropRule("r", "price_absdiff>5")
	got, err := r.Block(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForceKeep(a, b, r.Keep); want.Len() != 1 || !samePairSet(got, want) {
		t.Errorf("got %v, want %v (one pair)", got.SortedPairs(), want.SortedPairs())
	}
}

// TestAbsDiffNaNCountsAsMissing: "nan" parses as a float, so Feature.Eval
// must map a NaN difference to +Inf like a missing value; otherwise a
// negated atom is not the atom's complement and DNF changes the rule.
func TestAbsDiffNaNCountsAsMissing(t *testing.T) {
	a, b := oneColumnTables("price", []string{"nan", "inf", "3"}, []string{"5", "Inf", ""})
	for _, src := range []string{"price_absdiff>20", "price_absdiff<=20"} {
		for _, r := range []*Rule{MustParseDropRule("drop:"+src, src), MustParseKeepRule("keep:"+src, src)} {
			got, err := r.Block(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteForceKeep(a, b, r.Keep); !samePairSet(got, want) {
				t.Errorf("%s: got %v, want %v", r.Name(), got.SortedPairs(), want.SortedPairs())
			}
		}
	}
}

// TestEditDistanceLengthFilterCountsRunes: edit distance is over runes,
// so "éééa" (4 runes, 7 bytes) is within 4 edits of "a".
func TestEditDistanceLengthFilterCountsRunes(t *testing.T) {
	a, b := oneColumnTables("title", []string{"éééa"}, []string{"a"})
	r := MustParseDropRule("r", "title_editdist>4")
	got, err := r.Block(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForceKeep(a, b, r.Keep); want.Len() != 1 || !samePairSet(got, want) {
		t.Errorf("got %v, want %v (one pair)", got.SortedPairs(), want.SortedPairs())
	}
}

// TestRuleVerifyZeroAllocs pins the set-token verifier: a compiled
// set-similarity or overlap-count atom checks a pair by merging two
// sorted id rows, with no allocation.
func TestRuleVerifyZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomProductTable("A", 20, rng)
	b := randomProductTable("B", 20, rng)
	c := newCompiler(a, b)
	for _, src := range []string{"title_jac_word>=0.4", "brand_cos_3gram>0.5", "title_overlap_word>=2"} {
		atom := MustParse(src).(Atom)
		comp := c.compile(atom)
		ra, rb, kept := 0, 0, 0
		allocs := testing.AllocsPerRun(200, func() {
			if comp.holds(ra, rb) {
				kept++
			}
			ra, rb = (ra+1)%a.NumRows(), (rb+7)%b.NumRows()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per verified pair, want 0", src, allocs)
		}
	}
}

func TestConvenienceBlockers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomProductTable("A", 30, rng)
	b := randomProductTable("B", 30, rng)

	ov := NewOverlap("title", wordTok(), 2)
	got, err := ov.Block(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceKeep(a, b, ov.Keep)
	if !samePairSet(got, want) {
		t.Errorf("NewOverlap: got %d, want %d", got.Len(), want.Len())
	}

	sim := NewSim("title", jacMeasure(), wordTok(), 0.5)
	got, err = sim.Block(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want = bruteForceKeep(a, b, sim.Keep)
	if !samePairSet(got, want) {
		t.Errorf("NewSim: got %d, want %d", got.Len(), want.Len())
	}

	ed := NewEditDistance("brand", TransformNone, 2)
	got, err = ed.Block(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want = bruteForceKeep(a, b, ed.Keep)
	if !samePairSet(got, want) {
		t.Errorf("NewEditDistance: got %d, want %d", got.Len(), want.Len())
	}
	if !strings.Contains(ed.Name(), "ed<=2") {
		t.Errorf("name = %q", ed.Name())
	}
}

func TestRuleNamesAndParseHelpers(t *testing.T) {
	r := MustParseDropRule("ol", "title_overlap_word<3")
	if r.Name() != "ol" {
		t.Errorf("name = %q", r.Name())
	}
	k := MustParseKeepRule("keep", "attr_equal_brand")
	if k.Name() != "keep" {
		t.Errorf("name = %q", k.Name())
	}
}

func TestEditDistanceShortStringsFallback(t *testing.T) {
	// Strings shorter than the gram filter threshold exercise the
	// length-filtered scan path.
	a := table.MustNew("A", []string{"x"})
	for _, v := range []string{"ab", "cd", "a", ""} {
		a.MustAppend([]string{v})
	}
	b := table.MustNew("B", []string{"x"})
	for _, v := range []string{"ac", "c", "zzzzzzzz"} {
		b.MustAppend([]string{v})
	}
	r := NewEditDistance("x", TransformNone, 1)
	got, err := r.Block(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceKeep(a, b, r.Keep)
	if !samePairSet(got, want) {
		t.Errorf("short-string ed: got %v, want %v", got.SortedPairs(), want.SortedPairs())
	}
}

func wordTok() tokenize.Tokenizer { return tokenize.WordTokenizer{} }

func jacMeasure() simfunc.SetMeasure { return simfunc.Jaccard }

func TestJaroRulesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomProductTable("A", 25, rng)
	b := randomProductTable("B", 25, rng)
	for _, src := range []string{"title_jw<0.85", "brand_jaro<0.9", "lastword(title)_jw>=0.8"} {
		r := DropRule(src, MustParse(src))
		got, err := r.Block(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceKeep(a, b, r.Keep)
		if !samePairSet(got, want) {
			t.Errorf("rule %s: got %d pairs, want %d", src, got.Len(), want.Len())
		}
	}
}

// TestIDSlabsAllocatedOnce holds the CSR q-gram id slabs of the
// token-set and edit-distance drivers to their length bound: every
// column of random product tables and of values built to stress it
// (case folds that change a rune's byte length, invalid UTF-8, one-rune
// words, values shorter than a gram) ends within the capacity it
// started with, so no slab was ever regrown.
func TestIDSlabsAllocatedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := randomProductTable("A", 300, rng)
	hostile := table.MustNew("H", []string{"v"})
	for _, v := range []string{"", "a", "ab", "a b c d", "İİİ", "ẞ ß ẞ", "Ⱥ Ⱥ", "\xff\xfe", "x\xffy z",
		"a-b-c-d-e", "日本語", "KK k", "  ", "x  y"} {
		hostile.MustAppend([]string{v})
	}
	cols := []struct {
		t    *table.Table
		attr string
	}{{a, "title"}, {a, "brand"}, {a, "price"}, {hostile, "v"}}
	for _, c := range cols {
		for _, tr := range []Transform{TransformNone, TransformLastWord} {
			for _, tok := range []tokenize.Tokenizer{tokenize.QGramTokenizer{Q: 2}, tokenize.QGramTokenizer{Q: 3}} {
				f := Feature{Attr: c.attr, Transform: tr, Kind: FeatSetSim, Tok: tok}
				r := idColumn(c.t, f, map[string]int32{})
				bound := 0
				for i := 0; i < c.t.NumRows(); i++ {
					v, _ := c.t.ValueByName(i, c.attr)
					bound += maxTokens(tok, len(v))
				}
				if cap(r.ids) != bound {
					t.Errorf("%s %s/%v/%s: ids slab capacity %d (%d ids), want the bound %d", c.t.Name(), c.attr, tr, tok.Name(), cap(r.ids), len(r.ids), bound)
				}
			}
		}
		norm := normColumn(c.t, Feature{Attr: c.attr})
		gram := tokenize.QGramTokenizer{Q: 3}
		r, dict := newIDRows(len(norm), maxTokensOf(gram, norm)), map[string]int32{}
		for _, n := range norm {
			r.addRow(dict, gram, n)
		}
		if bound := maxTokensOf(gram, norm); cap(r.ids) != bound {
			t.Errorf("%s %s: edit-distance gram slab capacity %d, want the bound %d", c.t.Name(), c.attr, cap(r.ids), bound)
		}
	}
}
