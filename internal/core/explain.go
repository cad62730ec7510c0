package core

import (
	"fmt"
	"sort"
	"strings"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/floats"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/tokenize"
)

// Problem classifies why an attribute pair disagrees — the vocabulary of
// the paper's Table 4 "blocker problems" column. The paper's conclusion
// lists automatic explanation and summarization as future work; this
// implements that extension.
type Problem int

// The problem kinds.
const (
	ProblemNone         Problem = iota // values agree (not a problem)
	ProblemMissing                     // value missing on one or both sides
	ProblemMisspelling                 // tiny edit distance between values
	ProblemAbbreviation                // one value abbreviates the other
	ProblemWordSubset                  // one value's words contained in the other's (dropped/extra words)
	ProblemPartial                     // some words shared, some not
	ProblemDisjoint                    // values share nothing
)

// String names the problem as a report label.
func (p Problem) String() string {
	switch p {
	case ProblemNone:
		return "agrees"
	case ProblemMissing:
		return "missing value"
	case ProblemMisspelling:
		return "misspelling"
	case ProblemAbbreviation:
		return "abbreviation"
	case ProblemWordSubset:
		return "dropped/extra words"
	case ProblemPartial:
		return "partial word overlap"
	case ProblemDisjoint:
		return "disjoint values"
	}
	return "unknown"
}

// AttrDiag is the per-attribute diagnosis of one killed-off match.
type AttrDiag struct {
	Attr     string
	ValueA   string
	ValueB   string
	Jaccard  float64
	Problem  Problem
	Severity float64 // 0 (agrees) .. 1 (disjoint), for ranking problems
}

// Explanation describes why a match plausibly failed blocking: the
// per-attribute diagnoses sorted most-severe first, plus rendered notes.
type Explanation struct {
	Pair  blocker.Pair
	Diags []AttrDiag
	Notes []string
}

// Explain diagnoses one pair (typically a confirmed killed-off match)
// attribute by attribute.
func (d *Debugger) Explain(p blocker.Pair) Explanation {
	ex := Explanation{Pair: p}
	for _, attr := range d.res.Promising {
		va, _ := d.a.ValueByName(p.A, attr)
		vb, _ := d.b.ValueByName(p.B, attr)
		diag := diagnose(attr, va, vb)
		ex.Diags = append(ex.Diags, diag)
	}
	sort.SliceStable(ex.Diags, func(i, j int) bool { return ex.Diags[i].Severity > ex.Diags[j].Severity })
	for _, diag := range ex.Diags {
		if diag.Problem == ProblemNone {
			continue
		}
		ex.Notes = append(ex.Notes, fmt.Sprintf("%s: %s (%q vs %q)", diag.Attr, diag.Problem, diag.ValueA, diag.ValueB))
	}
	return ex
}

func diagnose(attr, va, vb string) AttrDiag {
	diag := AttrDiag{Attr: attr, ValueA: va, ValueB: vb}
	na, nb := tokenize.Normalize(va), tokenize.Normalize(vb)
	ta, tb := tokenize.WordSet(va), tokenize.WordSet(vb)
	diag.Jaccard = simfunc.Jaccard.Score(ta, tb)
	switch {
	case na == "" || nb == "":
		diag.Problem = ProblemMissing
		diag.Severity = 0.9
	case na == nb:
		diag.Problem = ProblemNone
	case isMisspelling(na, nb):
		diag.Problem = ProblemMisspelling
		diag.Severity = 0.6
	case isAbbreviation(ta, tb) || isAbbreviation(tb, ta):
		diag.Problem = ProblemAbbreviation
		diag.Severity = 0.6
	case simfunc.OverlapCount(ta, tb) == min(len(ta), len(tb)):
		diag.Problem = ProblemWordSubset
		diag.Severity = 0.4
	case diag.Jaccard > 0:
		diag.Problem = ProblemPartial
		diag.Severity = 0.7 * (1 - diag.Jaccard)
	default:
		diag.Problem = ProblemDisjoint
		diag.Severity = 1
	}
	return diag
}

// isMisspelling: small edit distance relative to length.
func isMisspelling(na, nb string) bool {
	d := simfunc.Levenshtein(na, nb)
	m := max(len([]rune(na)), len([]rune(nb)))
	return d > 0 && d <= 2 && m >= 4
}

// isAbbreviation reports whether some short word of ta abbreviates tb:
// a prefix of one of tb's words ("chas" for "charles"), a first+last
// letter contraction ("nk" for "newyork"), or an acronym of consecutive
// words ("ny" for "new york").
func isAbbreviation(ta, tb []string) bool {
	var initials strings.Builder
	for _, wb := range tb {
		initials.WriteByte(wb[0])
	}
	acro := initials.String()
	for _, wa := range ta {
		if len(wa) > 4 {
			continue
		}
		w := strings.TrimSuffix(wa, ".")
		if w == "" {
			continue
		}
		if len(w) >= 2 && strings.Contains(acro, w) {
			return true
		}
		for _, wb := range tb {
			if len(wb) <= len(w) {
				continue
			}
			if strings.HasPrefix(wb, w) {
				return true
			}
			if len(w) == 2 && w[0] == wb[0] && w[1] == wb[len(wb)-1] {
				return true
			}
		}
	}
	return false
}

// ProblemCount aggregates problems across a set of confirmed matches —
// the "summarize explanations, fix the most pervasive problems first"
// extension sketched in the paper's conclusion. Keys are "attr: problem".
func (d *Debugger) ProblemCount(matches []blocker.Pair) map[string]int {
	return problemCount(d.explainAll(matches))
}

// TopProblems renders the n most frequent problems, most pervasive first.
func (d *Debugger) TopProblems(matches []blocker.Pair, n int) []string {
	return topProblems(d.ProblemCount(matches), n)
}

// explainAll explains each pair once.
func (d *Debugger) explainAll(pairs []blocker.Pair) []Explanation {
	exs := make([]Explanation, len(pairs))
	for i, p := range pairs {
		exs[i] = d.Explain(p)
	}
	return exs
}

// problemCount is ProblemCount over explanations already made.
func problemCount(exs []Explanation) map[string]int {
	out := map[string]int{}
	for _, ex := range exs {
		for _, diag := range ex.Diags {
			if diag.Problem == ProblemNone {
				continue
			}
			out[diag.Attr+": "+diag.Problem.String()]++
		}
	}
	return out
}

// topProblems renders the n largest counts, ties by key.
func topProblems(counts map[string]int, n int) []string {
	type kv struct {
		k string
		v int
	}
	var kvs []kv
	for k, v := range counts {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].v != kvs[j].v {
			return kvs[i].v > kvs[j].v
		}
		return kvs[i].k < kvs[j].k
	})
	var out []string
	for i := 0; i < len(kvs) && i < n; i++ {
		out = append(out, fmt.Sprintf("%s (%d)", kvs[i].k, kvs[i].v))
	}
	return out
}

// SimilarCandidates returns up to n candidate pairs from E whose
// per-attribute similarity profile is closest (Euclidean distance over the
// verifier's feature vectors) to the given pair. This implements the
// paper's future-work query: given a killed-off match, how pervasive is
// its problem — which other killed-off pairs look the same from a blocking
// point of view?
func (d *Debugger) SimilarCandidates(p blocker.Pair, n int) []blocker.Pair {
	ref := d.ext.Vector(int32(p.A), int32(p.B))
	type scored struct {
		pair blocker.Pair
		dist float64
	}
	var all []scored
	seen := map[blocker.Pair]bool{p: true}
	for _, l := range d.join.Lists {
		for _, sp := range l.Pairs {
			q := blocker.Pair{A: int(sp.A), B: int(sp.B)}
			if seen[q] {
				continue
			}
			seen[q] = true
			v := d.ext.Vector(sp.A, sp.B)
			dist := 0.0
			for i := range ref {
				diff := ref[i] - v[i]
				dist += diff * diff
			}
			all = append(all, scored{pair: q, dist: dist})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !floats.Equal(all[i].dist, all[j].dist) {
			return all[i].dist < all[j].dist
		}
		if all[i].pair.A != all[j].pair.A {
			return all[i].pair.A < all[j].pair.A
		}
		return all[i].pair.B < all[j].pair.B
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]blocker.Pair, len(all))
	for i, s := range all {
		out[i] = s.pair
	}
	return out
}
