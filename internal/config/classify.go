// Package config implements the Config Generator of Section 3 of the
// paper: it classifies attributes, selects the promising set T, and builds
// the config tree that the joint top-k string-similarity joins traverse.
// Each config is a subset of attributes; tuples are compared on the
// concatenation of a config's attribute values.
package config

import (
	"strconv"
	"strings"

	"matchcatcher/internal/table"
)

// AttrClass is the rule-based classification of an attribute.
type AttrClass int

// The attribute classes of Section 3.2.
const (
	ClassString AttrClass = iota
	ClassNumeric
	ClassCategorical
	ClassBoolean
)

// String returns the class name.
func (c AttrClass) String() string {
	switch c {
	case ClassString:
		return "string"
	case ClassNumeric:
		return "numeric"
	case ClassCategorical:
		return "categorical"
	case ClassBoolean:
		return "boolean"
	}
	return "unknown"
}

var boolTokens = map[string]bool{
	"true": true, "false": true, "t": true, "f": true,
	"yes": true, "no": true, "y": true, "n": true, "0": true, "1": true,
}

// classifyColumn applies the rule-based classifier to one attribute of one
// table: numeric if at least 90% of non-missing values parse as numbers,
// boolean if every value is a boolean token, categorical if values are
// short, repeat, and number at most maxUnique distinct, string otherwise.
func classifyColumn(t *table.Table, attr string, maxUnique int) AttrClass {
	j := t.AttrIndex(attr)
	if j < 0 {
		return ClassString
	}
	nonMissing, numeric, totalTokens := 0, 0, 0
	allBool := true
	uniq := make(map[string]struct{})
	for i := 0; i < t.NumRows(); i++ {
		v := t.Value(i, j)
		if v == table.Missing {
			continue
		}
		nonMissing++
		norm := strings.ToLower(strings.TrimSpace(v))
		uniq[norm] = struct{}{}
		totalTokens += table.CountFields(norm)
		if mayParseFloat(norm) {
			if _, err := strconv.ParseFloat(norm, 64); err == nil {
				numeric++
			}
		}
		if !boolTokens[norm] {
			allBool = false
		}
	}
	if nonMissing == 0 {
		return ClassString
	}
	if allBool {
		return ClassBoolean
	}
	if float64(numeric) >= 0.9*float64(nonMissing) {
		return ClassNumeric
	}
	avgTokens := float64(totalTokens) / float64(nonMissing)
	if len(uniq) <= maxUnique && len(uniq) < nonMissing && avgTokens <= 3 {
		return ClassCategorical
	}
	return ClassString
}

// mayParseFloat is a sound prefilter for strconv.ParseFloat: it is false
// only for strings ParseFloat rejects. After an optional sign, every
// accepted form starts with a digit (decimal, hex 0x, underscores), a
// '.', or the i/n of inf, infinity and nan in either case. Skipping the
// parse of a text value saves the *NumError each failure allocates.
func mayParseFloat(s string) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	c := s[0]
	return '0' <= c && c <= '9' || c == '.' || c == 'i' || c == 'I' || c == 'n' || c == 'N'
}

// Classify classifies an attribute across both tables, taking the "wider"
// class when they disagree (string > categorical > boolean; numeric wins
// only if both sides are numeric, since a column that is numeric in one
// table but texty in the other should be compared as text).
func Classify(a, b *table.Table, attr string, maxUnique int) AttrClass {
	ca := classifyColumn(a, attr, maxUnique)
	cb := classifyColumn(b, attr, maxUnique)
	if ca == cb {
		return ca
	}
	if ca == ClassString || cb == ClassString {
		return ClassString
	}
	if ca == ClassNumeric || cb == ClassNumeric {
		// numeric vs categorical/boolean: treat as categorical.
		return ClassCategorical
	}
	// categorical vs boolean.
	return ClassCategorical
}

// valueSetJaccard computes the Jaccard similarity of the sets of distinct
// normalized non-missing values of attr in the two tables (the Section 3.2
// test that drops categorical attributes whose appearances differ, like
// Gender = {Male, Female} vs {M, F, U}).
func valueSetJaccard(a, b *table.Table, attr string) float64 {
	setOf := func(t *table.Table) map[string]struct{} {
		j := t.AttrIndex(attr)
		s := make(map[string]struct{})
		if j < 0 {
			return s
		}
		for i := 0; i < t.NumRows(); i++ {
			if v := t.Value(i, j); v != table.Missing {
				s[strings.ToLower(strings.TrimSpace(v))] = struct{}{}
			}
		}
		return s
	}
	sa, sb := setOf(a), setOf(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 0
	}
	inter := 0
	for v := range sa {
		if _, ok := sb[v]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}
