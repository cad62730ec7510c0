// Package config implements the Config Generator of Section 3 of the
// paper: it classifies attributes, selects the promising set T, and builds
// the config tree that the joint top-k string-similarity joins traverse.
// Each config is a subset of attributes; tuples are compared on the
// concatenation of a config's attribute values.
package config

import (
	"bytes"
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

// mayParseFloat is a sound prefilter for strconv.ParseFloat: it is false
// only for strings ParseFloat rejects. After an optional sign, every
// accepted form starts with a digit (decimal, hex 0x, underscores) or a
// '.', or is exactly inf, infinity or nan in any case. Skipping the
// parse of a text value saves the *NumError each failure allocates.
func mayParseFloat(s []byte) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if len(s) == 0 {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9' || c == '.':
		return true
	case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		return bytes.EqualFold(s, []byte("inf")) || bytes.EqualFold(s, []byte("infinity")) || bytes.EqualFold(s, []byte("nan"))
	}
	return false
}

// Classify classifies an attribute across both tables, taking the "wider"
// class when they disagree (string > categorical > boolean; numeric wins
// only if both sides are numeric, since a column that is numeric in one
// table but texty in the other should be compared as text).
func Classify(a, b *table.Table, attr string, maxUnique int) AttrClass {
	p := newProfiler(maxUnique, max(a.NumRows(), b.NumRows()))
	pa, pb := p.profile(a, attr), p.profile(b, attr)
	return widen(pa.class(maxUnique), pb.class(maxUnique))
}

// widen combines the two tables' classes of one attribute (see Classify).
func widen(ca, cb AttrClass) AttrClass {
	if ca == cb {
		return ca
	}
	if ca == ClassString || cb == ClassString {
		return ClassString
	}
	// numeric vs categorical/boolean, or categorical vs boolean: treat
	// as categorical.
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
