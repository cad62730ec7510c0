package blocker

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"matchcatcher/internal/floats"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// FeatureKind identifies how a pair feature is computed.
type FeatureKind int

// The supported pair-feature kinds.
const (
	// FeatEqual is 1 when the (transformed, normalized) values are equal
	// and non-missing, else 0.
	FeatEqual FeatureKind = iota
	// FeatSetSim is a set similarity (Jaccard/cosine/Dice/overlap
	// coefficient) over tokenized values.
	FeatSetSim
	// FeatOverlapCount is the raw number of common tokens.
	FeatOverlapCount
	// FeatEditDist is the Levenshtein distance between the (transformed,
	// normalized) values.
	FeatEditDist
	// FeatAbsDiff is |x-y| of the numeric values (+Inf if unparseable).
	FeatAbsDiff
	// FeatJaro is the Jaro similarity of the normalized values.
	FeatJaro
	// FeatJaroWinkler is the Jaro-Winkler similarity of the normalized
	// values.
	FeatJaroWinkler
)

// Transform names a value transform applied before comparing.
type Transform int

// The supported value transforms.
const (
	TransformNone Transform = iota
	TransformLastWord
	TransformFirstWord
)

func (tr Transform) apply(v string) string {
	switch tr {
	case TransformLastWord:
		return tokenize.LastWord(v)
	case TransformFirstWord:
		return tokenize.FirstWord(v)
	}
	return v
}

func (tr Transform) String() string {
	switch tr {
	case TransformLastWord:
		return "lastword"
	case TransformFirstWord:
		return "firstword"
	}
	return ""
}

// Feature computes a numeric feature of a tuple pair.
type Feature struct {
	Attr      string
	Transform Transform
	Kind      FeatureKind
	Measure   simfunc.SetMeasure // for FeatSetSim
	Tok       tokenize.Tokenizer // for FeatSetSim and FeatOverlapCount
}

// Eval computes the feature for tuple ra of table a and tuple rb of table b.
func (f Feature) Eval(a *table.Table, ra int, b *table.Table, rb int) float64 {
	va, _ := a.ValueByName(ra, f.Attr)
	vb, _ := b.ValueByName(rb, f.Attr)
	va, vb = f.Transform.apply(va), f.Transform.apply(vb)
	switch f.Kind {
	case FeatEqual:
		na, nb := tokenize.Normalize(va), tokenize.Normalize(vb)
		if na != "" && na == nb {
			return 1
		}
		return 0
	case FeatSetSim:
		return f.Measure.Score(f.Tok.Tokens(va), f.Tok.Tokens(vb))
	case FeatOverlapCount:
		return float64(simfunc.OverlapCount(f.Tok.Tokens(va), f.Tok.Tokens(vb)))
	case FeatEditDist:
		return float64(simfunc.Levenshtein(tokenize.Normalize(va), tokenize.Normalize(vb)))
	case FeatAbsDiff:
		x := simfunc.AbsDiff(strings.TrimSpace(va), strings.TrimSpace(vb))
		if math.IsNaN(x) {
			// "nan" parses, and |Inf-Inf| is NaN: count both as missing,
			// or a negated atom would not be the atom's complement.
			return math.Inf(1)
		}
		return x
	case FeatJaro:
		return simfunc.Jaro(tokenize.Normalize(va), tokenize.Normalize(vb))
	case FeatJaroWinkler:
		return simfunc.JaroWinkler(tokenize.Normalize(va), tokenize.Normalize(vb))
	}
	panic("blocker: unknown feature kind")
}

// String renders the feature in the mini-language syntax.
func (f Feature) String() string {
	attr := f.Attr
	if f.Transform != TransformNone {
		attr = f.Transform.String() + "(" + attr + ")"
	}
	switch f.Kind {
	case FeatEqual:
		return "attr_equal_" + attr
	case FeatSetSim:
		return fmt.Sprintf("%s_%s_%s", attr, f.Measure, f.Tok.Name())
	case FeatOverlapCount:
		return fmt.Sprintf("%s_overlap_%s", attr, f.Tok.Name())
	case FeatEditDist:
		return attr + "_editdist"
	case FeatAbsDiff:
		return attr + "_absdiff"
	case FeatJaro:
		return attr + "_jaro"
	case FeatJaroWinkler:
		return attr + "_jw"
	}
	return attr + "_?"
}

// CmpOp is a comparison operator in an atom.
type CmpOp int

// The comparison operators.
const (
	OpLT CmpOp = iota
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
)

func (op CmpOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	}
	return "?"
}

func (op CmpOp) negate() CmpOp {
	switch op {
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	}
	panic("blocker: unknown op")
}

func (op CmpOp) holds(x, v float64) bool {
	switch op {
	case OpLT:
		return x < v
	case OpLE:
		return x <= v
	case OpGT:
		return x > v
	case OpGE:
		return x >= v
	case OpEQ:
		// Exact by rule-language definition: "feature == value" in a
		// Magellan-style rule means bitwise float equality.
		return floats.Equal(x, v)
	case OpNE:
		return !floats.Equal(x, v)
	}
	panic("blocker: unknown op")
}

// Atom is a single comparison "feature op value".
type Atom struct {
	Feature Feature
	Op      CmpOp
	Value   float64
}

// Holds evaluates the atom on a tuple pair. Missing or unparseable
// numerics make FeatAbsDiff evaluate to +Inf, so "absdiff > t" kill rules
// fire on them (dropping the pair) while "absdiff <= t" keep rules do not —
// a deliberate, self-consistent choice: it is precisely the kind of
// missing-value blocker aggressiveness the debugger exists to surface
// (Table 4 of the paper), and it keeps atom negation exact so DNF
// normalization preserves semantics.
func (at Atom) Holds(a *table.Table, ra int, b *table.Table, rb int) bool {
	return at.Op.holds(at.Feature.Eval(a, ra, b, rb), at.Value)
}

// String renders the atom in the rule syntax Parse reads. The threshold
// is written in plain decimal: %g would give 1e+06, which the lexer's
// digits-and-dots numbers cannot read back.
func (at Atom) String() string {
	return fmt.Sprintf("%s%s%s", at.Feature, at.Op, strconv.FormatFloat(at.Value, 'f', -1, 64))
}

// Expr is a boolean expression over atoms: an Atom leaf or an AND/OR/NOT
// node. Expressions describe either keep conditions or kill rules; see
// KeepRule and DropRule.
type Expr interface {
	// Holds evaluates the expression on a tuple pair.
	Holds(a *table.Table, ra int, b *table.Table, rb int) bool
	// String renders the expression in the mini-language syntax.
	String() string
}

// And is conjunction.
type And struct{ L, R Expr }

// Holds implements Expr.
func (e And) Holds(a *table.Table, ra int, b *table.Table, rb int) bool {
	return e.L.Holds(a, ra, b, rb) && e.R.Holds(a, ra, b, rb)
}

func (e And) String() string { return "(" + e.L.String() + " AND " + e.R.String() + ")" }

// Or is disjunction.
type Or struct{ L, R Expr }

// Holds implements Expr.
func (e Or) Holds(a *table.Table, ra int, b *table.Table, rb int) bool {
	return e.L.Holds(a, ra, b, rb) || e.R.Holds(a, ra, b, rb)
}

func (e Or) String() string { return "(" + e.L.String() + " OR " + e.R.String() + ")" }

// Not is negation.
type Not struct{ E Expr }

// Holds implements Expr.
func (e Not) Holds(a *table.Table, ra int, b *table.Table, rb int) bool {
	return !e.E.Holds(a, ra, b, rb)
}

func (e Not) String() string { return "NOT " + e.E.String() }

// DNF converts an expression into disjunctive normal form: a slice of
// conjunctions of atoms. Negations are pushed into the atoms by flipping
// comparison operators (every leaf is a comparison, so the result is
// negation-free).
func DNF(e Expr) [][]Atom {
	return dnf(pushNot(e, false))
}

// maxConjuncts bounds the DNF of one rule given as text. DNF grows
// exponentially with a rule's length: a kill rule that ORs n two-atom
// conjunctions negates to 2^n conjuncts, so a 700-byte rule of 16
// clauses would expand to 65,536 before blocking starts. Every Table-2
// rule expands to at most 2, so 256 leaves hand-written rules ample room.
const maxConjuncts = 256

// conjuncts returns the number of conjunctions DNF(e), or DNF(Not{e})
// when neg, would hold, without expanding it; counts above maxConjuncts
// saturate at maxConjuncts+1.
func conjuncts(e Expr, neg bool) int {
	var l, r Expr
	sum := neg // a negated AND becomes an OR
	switch t := e.(type) {
	case Atom:
		return 1
	case Not:
		return conjuncts(t.E, !neg)
	case And:
		l, r = t.L, t.R
	case Or:
		l, r, sum = t.L, t.R, !neg
	default:
		panic(fmt.Sprintf("blocker: unknown expression node %T", e))
	}
	x, y := conjuncts(l, neg), conjuncts(r, neg)
	if sum {
		return min(x+y, maxConjuncts+1)
	}
	return min(x*y, maxConjuncts+1)
}

// pushNot applies De Morgan's laws, flipping atoms when neg is true.
func pushNot(e Expr, neg bool) Expr {
	switch t := e.(type) {
	case Atom:
		if neg {
			return Atom{Feature: t.Feature, Op: t.Op.negate(), Value: t.Value}
		}
		return t
	case Not:
		return pushNot(t.E, !neg)
	case And:
		if neg {
			return Or{pushNot(t.L, true), pushNot(t.R, true)}
		}
		return And{pushNot(t.L, false), pushNot(t.R, false)}
	case Or:
		if neg {
			return And{pushNot(t.L, true), pushNot(t.R, true)}
		}
		return Or{pushNot(t.L, false), pushNot(t.R, false)}
	}
	panic(fmt.Sprintf("blocker: unknown expression node %T", e))
}

// dnf assumes a negation-free tree.
func dnf(e Expr) [][]Atom {
	switch t := e.(type) {
	case Atom:
		return [][]Atom{{t}}
	case Or:
		return append(dnf(t.L), dnf(t.R)...)
	case And:
		left, right := dnf(t.L), dnf(t.R)
		out := make([][]Atom, 0, len(left)*len(right))
		for _, l := range left {
			for _, r := range right {
				conj := make([]Atom, 0, len(l)+len(r))
				conj = append(conj, l...)
				conj = append(conj, r...)
				out = append(out, conj)
			}
		}
		return out
	}
	panic(fmt.Sprintf("blocker: dnf on non-normalized node %T", e))
}
