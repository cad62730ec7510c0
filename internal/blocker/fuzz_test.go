package blocker

import (
	"fmt"
	"slices"
	"testing"

	"matchcatcher/internal/table"
)

// FuzzParse asserts the rule parser never panics and that anything it
// accepts round-trips: the String() rendering of a parsed expression must
// parse again to an expression with the same rendering. The parser chews
// raw user input (Magellan-style rule strings from mcdebug flags and the
// HTTP blocker route), so a short smoke catches panics cheaply.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"title_overlap_word<3",
		"attr_equal_manuf",
		"price_absdiff>20 OR title_jac_word<0.5",
		"(name_cos_word<0.5 AND type_jac_3gram<0.7) OR addr_jac_3gram<0.3",
		"NOT attr_equal_city",
		"lastword(name)_ed<=2",
		"name_jw>=0.9",
		"a_absdiff<1 AND NOT (b_absdiff>2 OR c_dice_word<0.3)",
		"((", "x", "_", "attr_equal_", ">=1", "a_jac_word< ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		rendered := e.String()
		e2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not reparse: %v", src, rendered, err)
		}
		if got := e2.String(); got != rendered {
			t.Fatalf("rendering not stable: %q -> %q", rendered, got)
		}
	})
}

// fuzzAlphabet holds the fragments FuzzRuleBlock builds cells from:
// ASCII words, accented and non-Latin letters, punctuation, whitespace
// (so numbers come padded) and numerals, "nan" and "Inf" included.
var fuzzAlphabet = []string{
	"", "a", "b", "usb", "Cable", "pro", "é", "ééé", "ü", "café", "日本",
	" ", "  ", "\t", "-", "'", ",", ".", "0", "1", "5", "12", "13", "nan", "Inf",
}

// fuzzColumns is the schema of both FuzzRuleBlock tables, matching the
// attributes the rule zoo names.
var fuzzColumns = []string{"title", "brand", "price", "year"}

// fuzzTables decodes two tables of at most 12 rows from cells: a row
// count per table, then per cell a fragment count (0-3) and that many
// fragment indices into fuzzAlphabet. Bytes past the end read as 0.
func fuzzTables(cells []byte) (a, b *table.Table) {
	next := func() int {
		if len(cells) == 0 {
			return 0
		}
		c := int(cells[0])
		cells = cells[1:]
		return c
	}
	nA, nB := next()%13, next()%13
	build := func(name string, n int) *table.Table {
		t := table.MustNew(name, fuzzColumns)
		for i := 0; i < n; i++ {
			row := make([]string, len(fuzzColumns))
			for c := range row {
				for k := next() % 4; k > 0; k-- {
					row[c] += fuzzAlphabet[next()%len(fuzzAlphabet)]
				}
			}
			t.MustAppend(row)
		}
		return t
	}
	return build("A", nA), build("B", nB)
}

// fuzzCells encodes two tables for fuzzTables; each cell is a list of
// fuzzAlphabet fragments.
func fuzzCells(a, b [][][]string) []byte {
	out := []byte{byte(len(a)), byte(len(b))}
	for _, rows := range [][][][]string{a, b} {
		for _, row := range rows {
			for _, cell := range row {
				out = append(out, byte(len(cell)))
				for _, frag := range cell {
					i := slices.Index(fuzzAlphabet, frag)
					if i < 0 {
						panic("fuzzCells: fragment not in the alphabet: " + frag)
					}
					out = append(out, byte(i))
				}
			}
		}
	}
	return out
}

// withThresholds replaces each atom's threshold, left to right, with one
// decoded from thr: similarities take k/64 for k in 0..64, counts and
// distances quarter steps up to 63.75. Bytes past the end read as 0.
func withThresholds(e Expr, thr *[]byte) Expr {
	switch n := e.(type) {
	case Atom:
		var c byte
		if len(*thr) > 0 {
			c, *thr = (*thr)[0], (*thr)[1:]
		}
		switch n.Feature.Kind {
		case FeatOverlapCount, FeatEditDist, FeatAbsDiff:
			n.Value = float64(c) / 4
		default:
			n.Value = float64(c%65) / 64
		}
		return n
	case Not:
		return Not{withThresholds(n.E, thr)}
	case And:
		l := withThresholds(n.L, thr)
		return And{l, withThresholds(n.R, thr)}
	case Or:
		l := withThresholds(n.L, thr)
		return Or{l, withThresholds(n.R, thr)}
	}
	panic(fmt.Sprintf("withThresholds: unknown node %T", e))
}

// FuzzRuleBlock is the differential fuzz over the rule executor: a rule
// from the zoo with fuzzed thresholds, as a drop or keep rule, must keep
// exactly the brute-force keep set on two fuzzed tables (accents,
// punctuation, padded numbers, empty values) (DESIGN.md "Rule-blocker
// execution").
func FuzzRuleBlock(f *testing.F) {
	zoo := func(src string) uint8 { return uint8(slices.Index(ruleZoo, src)) }
	// Padded numbers: Feature.Eval trims before parsing.
	f.Add(zoo("price_absdiff>20"), false, []byte{20}, fuzzCells(
		[][][]string{{nil, nil, {" ", "12"}, nil}},
		[][][]string{{nil, nil, {"13", " "}, nil}}))
	// Non-ASCII text: the edit-distance length filter counts runes.
	f.Add(zoo("title_editdist>4"), false, []byte{16}, fuzzCells(
		[][][]string{{{"ééé", "a"}, nil, nil, nil}},
		[][][]string{{{"a"}, nil, nil, nil}}))
	f.Add(zoo("(title_cos_word<0.5 AND brand_jac_3gram<0.7) OR title_jac_word<0.3"), true, []byte{32, 45, 19}, fuzzCells(
		[][][]string{{{"usb", " ", "Cable"}, {"café"}, {"12"}, {"1"}}, {{"pro"}, {"ü", "b"}, {"nan"}, nil}},
		[][][]string{{{"Cable", ",", "usb"}, {"café", "b"}, {" ", "5"}, {"Inf"}}}))
	f.Fuzz(func(t *testing.T, rule uint8, keep bool, thr []byte, cells []byte) {
		src := ruleZoo[int(rule)%len(ruleZoo)]
		expr := withThresholds(MustParse(src), &thr)
		r := DropRule("drop", expr)
		if keep {
			r = KeepRule("keep", expr)
		}
		a, b := fuzzTables(cells)
		want := bruteForceKeep(a, b, r.Keep)
		got, err := r.Block(a, b)
		if err != nil {
			t.Fatalf("%s %s: %v", r.Name(), expr, err)
		}
		if !samePairSet(got, want) {
			t.Fatalf("%s %s: got %v, want %v", r.Name(), expr, got.SortedPairs(), want.SortedPairs())
		}
	})
}
