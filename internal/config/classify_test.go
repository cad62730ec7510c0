package config

import (
	"strconv"
	"strings"
	"testing"
	"unicode"

	"matchcatcher/internal/table"
)

// TestMayParseFloatSound: the prefilter may pass strings ParseFloat then
// rejects, but must never reject one it accepts — special values in
// both cases, signs, leading dots, exponents, hex and underscores.
func TestMayParseFloatSound(t *testing.T) {
	accepted := []string{
		"0", "42", "-1", "+1e3", ".5", "-.5", "1_000", "0_1", "0x1p-2", "-0X1P+2",
		"inf", "-infinity", "+Inf", "INFINITY", "nan", "NaN", "1e-400",
	}
	for _, s := range accepted {
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			t.Fatalf("case %q: ParseFloat rejects it, fix the table: %v", s, err)
		}
		if !mayParseFloat([]byte(s)) {
			t.Errorf("mayParseFloat(%q) = false, but ParseFloat accepts it", s)
		}
	}
	// It must still filter: text values never reach ParseFloat.
	for _, s := range []string{"", "+", "-", "abc", "dave smith", " 1", "x1", "e5", "_1", "−1",
		"new york", "no", "info", "-nancy", "infinite"} {
		if mayParseFloat([]byte(s)) {
			t.Errorf("mayParseFloat(%q) = true, want the text value filtered out", s)
		}
	}
}

// FuzzColumnHelpers checks the column-statistics helpers on arbitrary
// values: the allocation-free field counter against strings.Fields and its invariance
// under normalization (a column profile counts raw values), and the
// ParseFloat prefilter's soundness (raw and as the profile normalizes
// values).
func FuzzColumnHelpers(f *testing.F) {
	for _, s := range []string{"", "a b", "x\u0085y z　", "\xff\xfe", "-infinity", "0x1p-2", "0_1", ".5", "+1e3", "NaN"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := table.CountFields(s), len(strings.Fields(s)); got != want {
			t.Errorf("CountFields(%q) = %d, strings.Fields gives %d", s, got, want)
		}
		norm := strings.ToLower(strings.TrimSpace(s))
		if got, want := table.CountFields(norm), table.CountFields(s); got != want {
			t.Errorf("CountFields(%q) = %d, but %d for the raw %q", norm, got, want, s)
		}
		for _, v := range []string{s, norm} {
			if _, err := strconv.ParseFloat(v, 64); err == nil && !mayParseFloat([]byte(v)) {
				t.Errorf("mayParseFloat(%q) = false, but ParseFloat accepts it", v)
			}
		}
	})
}

// TestFieldCountIgnoresCase: a column profile counts word fields on the
// raw values, where the classifier used to count them on lowercased ones.
// The counts agree because lowercasing turns no space into a non-space
// and no non-space into a space, for any rune (invalid UTF-8 bytes count
// as non-spaces either way).
func TestFieldCountIgnoresCase(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.IsSpace(unicode.ToLower(r)) != unicode.IsSpace(r) {
			t.Errorf("IsSpace(%U) differs from IsSpace of its lowercase %U", r, unicode.ToLower(r))
		}
	}
}
