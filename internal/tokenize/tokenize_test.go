package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"  Dave   SMITH ", "dave smith"},
		{"New\tYork\nNY", "new york ny"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// normalizeReference is Normalize's specification: lowercase, split on
// Unicode space runs, join with one space.
func normalizeReference(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

func TestNormalizeKeepsNormalizedValues(t *testing.T) {
	for _, s := range []string{"", "dave smith", "café ünd", "x", "\ufffd ok"} {
		if got := Normalize(s); got != s {
			t.Errorf("Normalize(%q) = %q, want it unchanged", s, got)
		}
		if n := testing.AllocsPerRun(10, func() { _ = Normalize(s) }); n != 0 {
			t.Errorf("Normalize(%q) made %v allocations, want 0", s, n)
		}
	}
}

// FuzzNormalize holds the one-pass Normalize byte-identical to its
// specification, strings.Join(strings.Fields(strings.ToLower(s)), " "):
// case folds that change byte length, invalid UTF-8,
// Unicode spaces (NEL, no-break space, ideographic space) and runs of
// them at either end.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		"", " ", "  Dave   SMITH ", "New\tYork\nNY", "a\u00a0b\u0085c\u3000",
		"\xff\xfeAB", "\ufffd", "ȺȾ İstanbul", "ΣΑΣ ß", "a\v\f\rb", "dave smith",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Normalize(s), normalizeReference(s); got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Dave Smith", []string{"dave", "smith"}},
		{"O'Brien, J.R.", []string{"o", "brien", "j", "r"}},
		{"  x  ", []string{"x"}},
		{"MP3 player v2", []string{"mp3", "player", "v2"}},
		{"---", nil},
	}
	for _, c := range cases {
		if got := Words(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Words(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWordSetDedups(t *testing.T) {
	got := WordSet("the cat and the hat")
	want := []string{"the", "cat", "and", "hat"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WordSet = %v, want %v", got, want)
	}
}

func TestQGrams(t *testing.T) {
	if got := QGrams("", 3); got != nil {
		t.Errorf("QGrams empty = %v", got)
	}
	if got, want := QGrams("ab", 3), []string{"ab"}; !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams short = %v, want %v", got, want)
	}
	if got, want := QGrams("ABCD", 3), []string{"abc", "bcd"}; !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams = %v, want %v", got, want)
	}
	if got, want := QGramSet("aaaa", 3), []string{"aaa"}; !reflect.DeepEqual(got, want) {
		t.Errorf("QGramSet = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("QGrams with q=0 should panic")
		}
	}()
	QGrams("x", 0)
}

func TestQGramsUnicode(t *testing.T) {
	got := QGrams("日本語x", 3)
	want := []string{"日本語", "本語x"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams unicode = %v, want %v", got, want)
	}
}

func TestFirstLastWord(t *testing.T) {
	if got := LastWord("Dave Smith"); got != "smith" {
		t.Errorf("LastWord = %q", got)
	}
	if got := FirstWord("Dave Smith"); got != "dave" {
		t.Errorf("FirstWord = %q", got)
	}
	if LastWord("") != "" || FirstWord("  ") != "" {
		t.Error("empty-string words should be empty")
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("word")
	if !ok || w.Name() != "word" {
		t.Errorf("ByName(word) = %v,%v", w, ok)
	}
	g, ok := ByName("3gram")
	if !ok || g.Name() != "3gram" {
		t.Errorf("ByName(3gram) = %v,%v", g, ok)
	}
	if got := g.Tokens("abcd"); !reflect.DeepEqual(got, []string{"abc", "bcd"}) {
		t.Errorf("3gram tokens = %v", got)
	}
	if _, ok := ByName("bogus"); ok {
		t.Error("ByName(bogus) should fail")
	}
}

// Property: every token Words returns is non-empty, lowercase, and appears
// in the lowercased input; tokens contain no separator characters.
func TestWordsProperties(t *testing.T) {
	f := func(s string) bool {
		low := strings.ToLower(s)
		for _, tok := range Words(s) {
			if tok == "" || tok != strings.ToLower(tok) {
				return false
			}
			if !strings.Contains(low, tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: WordSet returns distinct tokens and a subset of Words.
func TestWordSetProperties(t *testing.T) {
	f := func(s string) bool {
		set := WordSet(s)
		seen := map[string]bool{}
		for _, tok := range set {
			if seen[tok] {
				return false
			}
			seen[tok] = true
		}
		for _, tok := range Words(s) {
			if !seen[tok] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: number of q-grams of a normalized string of rune length n>q is
// n-q+1, and every gram has rune length q.
func TestQGramsProperties(t *testing.T) {
	f := func(s string) bool {
		const q = 3
		n := []rune(Normalize(s))
		grams := QGrams(s, q)
		if len(n) == 0 {
			return grams == nil
		}
		if len(n) <= q {
			return len(grams) == 1
		}
		if len(grams) != len(n)-q+1 {
			return false
		}
		for _, g := range grams {
			if len([]rune(g)) != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Each visits exactly the tokens Tokens returns (once deduped,
// in first-occurrence order), and QGrams' substring grams equal the
// rune-slice grams, for both tokenizers and for invalid UTF-8 input.
func TestEachMatchesTokens(t *testing.T) {
	runeGrams := func(s string, q int) []string {
		n := []rune(Normalize(s))
		if len(n) == 0 {
			return nil
		}
		if len(n) <= q {
			return []string{string(n)}
		}
		var out []string
		for i := 0; i+q <= len(n); i++ {
			out = append(out, string(n[i:i+q]))
		}
		return out
	}
	check := func(s string) bool {
		if got, want := QGrams(s, 3), runeGrams(s, 3); !reflect.DeepEqual(got, want) {
			t.Logf("QGrams(%q) = %q, want %q", s, got, want)
			return false
		}
		for _, tok := range []Tokenizer{WordTokenizer{}, QGramTokenizer{Q: 3}, QGramTokenizer{Q: 1}} {
			var seen []string
			Each(tok, s, func(x string) { seen = append(seen, x) })
			if got, want := dedup(seen), tok.Tokens(s); !reflect.DeepEqual(got, want) {
				t.Logf("%s Each(%q) = %q, want %q", tok.Name(), s, got, want)
				return false
			}
		}
		return true
	}
	for _, s := range []string{"", "ab", "Éclair  café", "日本語x", "a\xffb\xfe", "\xc3", "  x  "} {
		if !check(s) {
			t.Errorf("mismatch on %q", s)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: AppendLower writes exactly strings.ToLower, and scanning its
// output with NextWord visits exactly the tokens Words returns —
// case-folding runes that change byte length (İ, ẞ, Ⱥ), invalid UTF-8,
// a literal U+FFFD and separator-only strings included.
func TestNextWordMatchesWords(t *testing.T) {
	check := func(s string) bool {
		low := AppendLower([]byte("junk"), s)[4:]
		if string(low) != strings.ToLower(s) {
			t.Logf("AppendLower(%q) = %q, want %q", s, low, strings.ToLower(s))
			return false
		}
		var got []string
		for lo, hi := NextWord(low, 0); lo < hi; lo, hi = NextWord(low, hi) {
			got = append(got, string(low[lo:hi]))
		}
		if want := Words(s); !reflect.DeepEqual(got, want) {
			t.Logf("NextWord(%q) = %q, want %q", s, got, want)
			return false
		}
		return true
	}
	for _, s := range []string{"", "---", "Dave SMITH", "İSTANBUL straße GROẞ", "ȺB Ⱥ", "a\xffb\xfe", "\xc3",
		"x\uFFFDy", "  x  ", "K\u212Aelvin", "MP3-player_v2", "日本語x"} {
		if !check(s) {
			t.Errorf("mismatch on %q", s)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
