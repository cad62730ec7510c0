package config

import (
	"strconv"
	"strings"
	"testing"

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
		if !mayParseFloat(s) {
			t.Errorf("mayParseFloat(%q) = false, but ParseFloat accepts it", s)
		}
	}
	// It must still filter: text values never reach ParseFloat.
	for _, s := range []string{"", "+", "-", "abc", "dave smith", " 1", "x1", "e5", "_1", "−1"} {
		if mayParseFloat(s) {
			t.Errorf("mayParseFloat(%q) = true, want the text value filtered out", s)
		}
	}
}

// FuzzColumnHelpers checks both column-statistics helpers on arbitrary
// values: the field counter against strings.Fields, and the ParseFloat
// prefilter's soundness (raw and as classifyColumn normalizes values).
// Registered in the Makefile fuzz-smoke target.
func FuzzColumnHelpers(f *testing.F) {
	for _, s := range []string{"", "a b", "x\u0085y z　", "\xff\xfe", "-infinity", "0x1p-2", "0_1", ".5", "+1e3", "NaN"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := table.CountFields(s), len(strings.Fields(s)); got != want {
			t.Errorf("CountFields(%q) = %d, strings.Fields gives %d", s, got, want)
		}
		for _, v := range []string{s, strings.ToLower(strings.TrimSpace(s))} {
			if _, err := strconv.ParseFloat(v, 64); err == nil && !mayParseFloat(v) {
				t.Errorf("mayParseFloat(%q) = false, but ParseFloat accepts it", v)
			}
		}
	})
}
