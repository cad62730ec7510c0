// Package tokenize provides the string tokenizers used by blockers and by
// the top-k string similarity join: whitespace/punctuation word tokens and
// character q-grams, with optional normalization.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases s and collapses runs of whitespace into single
// spaces. Blockers and the SSJ normalize values before tokenizing so that
// case noise does not defeat set-based similarity (the paper's Table 4
// lists "input tables are not lower-cased" as a real blocker problem the
// debugger surfaced; the debugger itself is robust to it).
//
// It returns strings.Join(strings.Fields(strings.ToLower(s)), " ") byte
// for byte (an invalid UTF-8 byte becomes U+FFFD), without the
// intermediate strings: s itself, unallocated, when it is already
// normalized, and otherwise one builder pass.
func Normalize(s string) string {
	if normalized(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	sep := false // a space run lies between the last word written and the next
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		i += w
		if isSpace(r) {
			sep = b.Len() > 0
			continue
		}
		if sep {
			b.WriteByte(' ')
			sep = false
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// normalized reports whether Normalize(s) == s: valid UTF-8 with no
// upper-case rune, and words separated by single ASCII spaces with none
// leading or trailing.
func normalized(s string) bool {
	space := true // the previous rune was a space, or there was none
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		i += w
		switch {
		case r == ' ' && !space:
			space = true
		case isSpace(r), r == utf8.RuneError && w == 1, unicode.ToLower(r) != r:
			return false
		default:
			space = false
		}
	}
	return !space || s == ""
}

// isSpace is unicode.IsSpace, the separator of strings.Fields.
func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return r == ' ' || '\t' <= r && r <= '\r'
	}
	return unicode.IsSpace(r)
}

// Words splits s into word tokens: maximal runs of letters and digits,
// lowercased. Punctuation separates tokens ("O'Brien" -> ["o", "brien"]).
func Words(s string) []string {
	var toks []string
	eachWord(s, func(tok string) { toks = append(toks, tok) })
	return toks
}

// eachWord calls fn on each word token of s in order, duplicates
// included. Tokens are substrings of the lowercased s.
func eachWord(s string, fn func(tok string)) {
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if isWordRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		fn(lower[start:])
	}
}

// AppendLower appends strings.ToLower(s) to dst: each rune of s as
// unicode.ToLower maps it, an invalid UTF-8 byte as U+FFFD. Callers that
// lowercase many values into one reused buffer allocate nothing per value.
func AppendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += w
	}
	return dst
}

// NextWord returns the bounds of the first word token of the lowercased
// value b (as AppendLower writes it) that starts at or after byte from,
// or lo == hi == len(b) when there is none. Scanning with it from 0,
// restarting at each hi, visits the tokens Words yields for the original
// value, in order:
//
//	for lo, hi := NextWord(b, 0); lo < hi; lo, hi = NextWord(b, hi) { ... }
func NextWord(b []byte, from int) (lo, hi int) {
	lo = -1
	for i := from; i < len(b); {
		r, w := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRune(b[i:])
		}
		if isWordRune(r) {
			if lo < 0 {
				lo = i
			}
		} else if lo >= 0 {
			return lo, i
		}
		i += w
	}
	if lo < 0 {
		return len(b), len(b)
	}
	return lo, len(b)
}

// isWordRune reports whether r belongs to a word token.
func isWordRune(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// WordSet returns the distinct word tokens of s in first-occurrence order.
func WordSet(s string) []string {
	return dedup(Words(s))
}

// QGrams returns the character q-grams of the normalized form of s,
// including duplicates, in order. Strings shorter than q yield a single
// gram holding the whole string (if non-empty). q must be positive.
func QGrams(s string, q int) []string {
	var grams []string
	eachQGram(s, q, func(g string) { grams = append(grams, g) })
	return grams
}

// eachQGram calls fn on each q-gram of the normalized form of s in
// order, duplicates included. Grams are substrings of the normalized
// value (Normalize's lowercasing leaves it valid UTF-8, so a gram of q
// runes is exactly the bytes between two rune boundaries).
func eachQGram(s string, q int, fn func(gram string)) {
	if q <= 0 {
		panic("tokenize: QGrams requires q > 0")
	}
	n := Normalize(s)
	if n == "" {
		return
	}
	// lo and hi are the byte offsets of the window's first rune and of
	// the rune just past it.
	lo, hi := 0, 0
	for i := 0; i < q && hi < len(n); i++ {
		_, w := utf8.DecodeRuneInString(n[hi:])
		hi += w
	}
	for {
		fn(n[lo:hi])
		if hi == len(n) {
			return
		}
		_, w := utf8.DecodeRuneInString(n[lo:])
		lo += w
		_, w = utf8.DecodeRuneInString(n[hi:])
		hi += w
	}
}

// QGramSet returns the distinct q-grams of s in first-occurrence order.
func QGramSet(s string, q int) []string {
	return dedup(QGrams(s, q))
}

// LastWord returns the final word token of s, or "" if s has none. It
// backs hash blockers such as lastword(a.Name) = lastword(b.Name) from the
// paper's running example.
func LastWord(s string) string {
	w := Words(s)
	if len(w) == 0 {
		return ""
	}
	return w[len(w)-1]
}

// FirstWord returns the first word token of s, or "" if s has none.
func FirstWord(s string) string {
	w := Words(s)
	if len(w) == 0 {
		return ""
	}
	return w[0]
}

// A Tokenizer converts a string into tokens. The two standard tokenizers
// are word-level and 3-gram; blocker predicates name them "word" and
// "3gram" (Table 2 of the paper).
type Tokenizer interface {
	// Tokens returns the token set (distinct tokens) of s.
	Tokens(s string) []string
	// Name returns the tokenizer's name as used in blocker expressions.
	Name() string
}

// Each calls fn on every token tok.Tokens(s) holds, in order and possibly
// repeated, without building the token slice: word tokens and q-grams are
// substrings of the lowercased or normalized s. Other tokenizers fall
// back to Tokens.
func Each(tok Tokenizer, s string, fn func(tok string)) {
	switch t := tok.(type) {
	case WordTokenizer:
		eachWord(s, fn)
	case QGramTokenizer:
		eachQGram(s, t.Q, fn)
	default:
		for _, x := range tok.Tokens(s) {
			fn(x)
		}
	}
}

// WordTokenizer tokenizes into distinct word tokens.
type WordTokenizer struct{}

// Tokens implements Tokenizer.
func (WordTokenizer) Tokens(s string) []string { return WordSet(s) }

// Name implements Tokenizer.
func (WordTokenizer) Name() string { return "word" }

// QGramTokenizer tokenizes into distinct character q-grams.
type QGramTokenizer struct{ Q int }

// Tokens implements Tokenizer.
func (g QGramTokenizer) Tokens(s string) []string { return QGramSet(s, g.Q) }

// Name implements Tokenizer.
func (g QGramTokenizer) Name() string {
	switch g.Q {
	case 3:
		return "3gram"
	default:
		return "qgram"
	}
}

// ByName returns the tokenizer for a name used in blocker expressions:
// "word" or "3gram" (or "qgram", an alias for 3-gram). It returns false
// for unknown names.
func ByName(name string) (Tokenizer, bool) {
	switch name {
	case "word":
		return WordTokenizer{}, true
	case "3gram", "qgram":
		return QGramTokenizer{Q: 3}, true
	}
	return nil, false
}

func dedup(toks []string) []string {
	if len(toks) < 2 {
		return toks
	}
	seen := make(map[string]struct{}, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
