package blocker

import (
	"fmt"

	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/tokenize"
)

// BuildFromRules assembles the blocker a CLI or API request describes:
// each drops entry parses as a Magellan-style kill rule (named drop0,
// drop1, ...), each keeps entry as a keep rule (keep0, ...), each
// equals entry as an attribute-equivalence blocker, and multiple
// members combine as a union named "union". It is the one construction
// path mcdebug and mcserve share, so a scripted HTTP session and a CLI
// session given the same rule strings build blockers with the same
// names — names the canonical session report embeds. A rule whose DNF
// would hold more than maxConjuncts conjunctions is an error.
func BuildFromRules(drops, keeps, equals []string) (Blocker, error) {
	var members []Blocker
	add := func(id, src string, wrap func(string, Expr) *Rule) error {
		e, err := Parse(src)
		if err != nil {
			return err
		}
		r := wrap(id, e)
		if conjuncts(r.Keep, false) > maxConjuncts {
			return fmt.Errorf("rule %s expands to more than %d conjunctions; split it into smaller rules", id, maxConjuncts)
		}
		members = append(members, r)
		return nil
	}
	for i, src := range drops {
		if err := add(fmt.Sprintf("drop%d", i), src, DropRule); err != nil {
			return nil, err
		}
	}
	for i, src := range keeps {
		if err := add(fmt.Sprintf("keep%d", i), src, KeepRule); err != nil {
			return nil, err
		}
	}
	for _, attr := range equals {
		members = append(members, NewAttrEquivalence(attr))
	}
	switch len(members) {
	case 0:
		return nil, fmt.Errorf("no blocker given; use a drop, keep, or attr-equal rule")
	case 1:
		return members[0], nil
	default:
		return NewUnion("union", members...), nil
	}
}

// NewOverlap returns an overlap blocker keeping pairs whose values of attr
// share at least minCount tokens under tok.
func NewOverlap(attr string, tok tokenize.Tokenizer, minCount int) *Rule {
	return KeepRule(
		fmt.Sprintf("%s_overlap_%s>=%d", attr, tok.Name(), minCount),
		Atom{
			Feature: Feature{Attr: attr, Kind: FeatOverlapCount, Tok: tok},
			Op:      OpGE,
			Value:   float64(minCount),
		})
}

// NewSim returns a similarity-based blocker keeping pairs whose values of
// attr score at least threshold under the measure and tokenizer.
func NewSim(attr string, m simfunc.SetMeasure, tok tokenize.Tokenizer, threshold float64) *Rule {
	return KeepRule(
		fmt.Sprintf("%s_%s_%s>=%g", attr, m, tok.Name(), threshold),
		Atom{
			Feature: Feature{Attr: attr, Kind: FeatSetSim, Measure: m, Tok: tok},
			Op:      OpGE,
			Value:   threshold,
		})
}

// NewEditDistance returns a similarity-based blocker keeping pairs whose
// (optionally transformed) values of attr are within edit distance d —
// e.g. the paper's Q3 rule ed(lastword(a.Name), lastword(b.Name)) <= 2 is
// NewEditDistance("Name", TransformLastWord, 2).
func NewEditDistance(attr string, tr Transform, d int) *Rule {
	name := attr
	if tr != TransformNone {
		name = tr.String() + "(" + attr + ")"
	}
	return KeepRule(
		fmt.Sprintf("%s_ed<=%d", name, d),
		Atom{
			Feature: Feature{Attr: attr, Transform: tr, Kind: FeatEditDist},
			Op:      OpLE,
			Value:   float64(d),
		})
}
