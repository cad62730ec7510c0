package blocker

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

func TestFeatureEval(t *testing.T) {
	a := table.MustNew("A", []string{"name", "city", "price"})
	a.MustAppend([]string{"Dave Smith", "Atlanta", "10.5"})
	b := table.MustNew("B", []string{"name", "city", "price"})
	b.MustAppend([]string{"David Smith", "atlanta", "12.5"})

	eq := Feature{Attr: "city", Kind: FeatEqual}
	if got := eq.Eval(a, 0, b, 0); got != 1 {
		t.Errorf("city equal = %g, want 1 (normalization)", got)
	}
	eqName := Feature{Attr: "name", Kind: FeatEqual}
	if got := eqName.Eval(a, 0, b, 0); got != 0 {
		t.Errorf("name equal = %g, want 0", got)
	}
	lw := Feature{Attr: "name", Transform: TransformLastWord, Kind: FeatEqual}
	if got := lw.Eval(a, 0, b, 0); got != 1 {
		t.Errorf("lastword(name) equal = %g, want 1", got)
	}
	jac := Feature{Attr: "name", Kind: FeatSetSim, Measure: simfunc.Jaccard, Tok: tokenize.WordTokenizer{}}
	if got, want := jac.Eval(a, 0, b, 0), 1.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("name jaccard = %g, want %g", got, want)
	}
	ov := Feature{Attr: "name", Kind: FeatOverlapCount, Tok: tokenize.WordTokenizer{}}
	if got := ov.Eval(a, 0, b, 0); got != 1 {
		t.Errorf("name overlap = %g, want 1", got)
	}
	ad := Feature{Attr: "price", Kind: FeatAbsDiff}
	if got := ad.Eval(a, 0, b, 0); got != 2 {
		t.Errorf("price absdiff = %g, want 2", got)
	}
	ed := Feature{Attr: "city", Kind: FeatEditDist}
	if got := ed.Eval(a, 0, b, 0); got != 0 {
		t.Errorf("city editdist = %g, want 0", got)
	}
}

func TestEqualOnMissingIsFalse(t *testing.T) {
	a := table.MustNew("A", []string{"x"})
	a.MustAppend([]string{""})
	b := table.MustNew("B", []string{"x"})
	b.MustAppend([]string{""})
	f := Feature{Attr: "x", Kind: FeatEqual}
	if got := f.Eval(a, 0, b, 0); got != 0 {
		t.Errorf("missing==missing should be 0, got %g", got)
	}
}

func TestAbsDiffMissingIsInfinite(t *testing.T) {
	// Missing numerics evaluate as +Inf: "absdiff > t" fires (the kill
	// rule drops the pair — the missing-value aggressiveness the debugger
	// surfaces), "absdiff <= t" does not, and negation stays exact.
	a := table.MustNew("A", []string{"p"})
	a.MustAppend([]string{""})
	b := table.MustNew("B", []string{"p"})
	b.MustAppend([]string{"5"})
	gt := Atom{Feature: Feature{Attr: "p", Kind: FeatAbsDiff}, Op: OpGT, Value: 20}
	le := Atom{Feature: Feature{Attr: "p", Kind: FeatAbsDiff}, Op: OpLE, Value: 20}
	if !gt.Holds(a, 0, b, 0) {
		t.Error("absdiff>t on missing must hold (+Inf)")
	}
	if le.Holds(a, 0, b, 0) {
		t.Error("absdiff<=t on missing must not hold")
	}
	if gt.Holds(a, 0, b, 0) == (Not{E: gt}).Holds(a, 0, b, 0) {
		t.Error("negation must be exact on missing values")
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		x, v float64
		want bool
	}{
		{OpLT, 1, 2, true}, {OpLT, 2, 2, false},
		{OpLE, 2, 2, true}, {OpLE, 3, 2, false},
		{OpGT, 3, 2, true}, {OpGT, 2, 2, false},
		{OpGE, 2, 2, true}, {OpGE, 1, 2, false},
		{OpEQ, 2, 2, true}, {OpEQ, 1, 2, false},
		{OpNE, 1, 2, true}, {OpNE, 2, 2, false},
	}
	for _, c := range cases {
		if got := c.op.holds(c.x, c.v); got != c.want {
			t.Errorf("%v.holds(%g,%g) = %v, want %v", c.op, c.x, c.v, got, c.want)
		}
	}
}

func TestNegate(t *testing.T) {
	pairs := map[CmpOp]CmpOp{OpLT: OpGE, OpLE: OpGT, OpGT: OpLE, OpGE: OpLT, OpEQ: OpNE, OpNE: OpEQ}
	for op, want := range pairs {
		if got := op.negate(); got != want {
			t.Errorf("negate(%v) = %v, want %v", op, got, want)
		}
		// Negation must be an involution.
		if got := op.negate().negate(); got != op {
			t.Errorf("double negate(%v) = %v", op, got)
		}
	}
}

func atomNamed(name string, op CmpOp, v float64) Atom {
	return Atom{Feature: Feature{Attr: name, Kind: FeatAbsDiff}, Op: op, Value: v}
}

func TestDNFShapes(t *testing.T) {
	a := atomNamed("a", OpLT, 1)
	b := atomNamed("b", OpLT, 2)
	c := atomNamed("c", OpLT, 3)

	// (a AND b) OR c -> two conjuncts.
	e := Or{And{a, b}, c}
	d := DNF(e)
	if len(d) != 2 || len(d[0]) != 2 || len(d[1]) != 1 {
		t.Fatalf("DNF shape = %v", d)
	}

	// a AND (b OR c) -> distribute: (a,b), (a,c).
	e2 := And{a, Or{b, c}}
	d2 := DNF(e2)
	if len(d2) != 2 || len(d2[0]) != 2 || len(d2[1]) != 2 {
		t.Fatalf("DNF distribute shape = %v", d2)
	}

	// NOT (a OR b) -> single conjunct of flipped atoms.
	e3 := Not{Or{a, b}}
	d3 := DNF(e3)
	if len(d3) != 1 || len(d3[0]) != 2 {
		t.Fatalf("DNF De Morgan shape = %v", d3)
	}
	if d3[0][0].Op != OpGE || d3[0][1].Op != OpGE {
		t.Errorf("negated atoms = %v", d3[0])
	}

	// Double negation.
	e4 := Not{Not{a}}
	d4 := DNF(e4)
	if len(d4) != 1 || len(d4[0]) != 1 || d4[0][0].Op != OpLT {
		t.Fatalf("double negation = %v", d4)
	}
}

// TestDNFEquivalence checks semantic equivalence of DNF and the original
// expression on a truth-table of feature values.
func TestDNFEquivalence(t *testing.T) {
	// Build tables where attribute values make each atom independently
	// true/false: atoms are "x_absdiff < 5" etc. on three numeric attrs.
	attrs := []string{"p", "q", "r"}
	exprs := []Expr{
		Or{And{atomNamed("p", OpLT, 5), atomNamed("q", OpGE, 5)}, Not{atomNamed("r", OpLT, 5)}},
		Not{Or{atomNamed("p", OpLT, 5), And{atomNamed("q", OpLT, 5), atomNamed("r", OpGE, 5)}}},
		And{Or{atomNamed("p", OpLT, 5), atomNamed("q", OpLT, 5)}, Or{atomNamed("q", OpGE, 5), Not{atomNamed("r", OpLT, 5)}}},
	}
	for _, e := range exprs {
		d := DNF(e)
		for bits := 0; bits < 8; bits++ {
			a := table.MustNew("A", attrs)
			b := table.MustNew("B", attrs)
			rowA := make([]string, 3)
			rowB := make([]string, 3)
			for i := 0; i < 3; i++ {
				rowA[i] = "0"
				if bits&(1<<i) != 0 {
					rowB[i] = "1" // absdiff 1 -> "<5" true
				} else {
					rowB[i] = "10" // absdiff 10 -> "<5" false
				}
			}
			a.MustAppend(rowA)
			b.MustAppend(rowB)
			want := e.Holds(a, 0, b, 0)
			got := false
			for _, conj := range d {
				all := true
				for _, at := range conj {
					if !at.Holds(a, 0, b, 0) {
						all = false
						break
					}
				}
				if all {
					got = true
					break
				}
			}
			if got != want {
				t.Errorf("expr %s bits %03b: DNF=%v, expr=%v", e, bits, got, want)
			}
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := Or{And{atomNamed("p", OpLT, 5), Not{atomNamed("q", OpGE, 2)}}, atomNamed("r", OpEQ, 1)}
	s := e.String()
	for _, want := range []string{"AND", "OR", "NOT", "p_absdiff<5", "q_absdiff>=2", "r_absdiff==1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	f := Feature{Attr: "name", Transform: TransformLastWord, Kind: FeatEqual}
	if got := f.String(); got != "attr_equal_lastword(name)" {
		t.Errorf("feature string = %q", got)
	}
	fs := Feature{Attr: "title", Kind: FeatSetSim, Measure: simfunc.Cosine, Tok: tokenize.WordTokenizer{}}
	if got := fs.String(); got != "title_cos_word" {
		t.Errorf("feature string = %q", got)
	}
}

// wideKillRule ORs n two-atom conjunctions. As a drop rule its keep
// condition negates to an AND of n two-atom ORs: 2^n conjuncts.
func wideKillRule(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprintf("(title_jac_word<0.%d AND brand_jac_3gram<0.%d)", i%9+1, i%9+1)
	}
	return strings.Join(parts, " OR ")
}

// TestConjunctsCountsDNF: the non-expanding count equals the length of
// the expanded DNF, negated or not, and saturates past maxConjuncts.
func TestConjunctsCountsDNF(t *testing.T) {
	srcs := append([]string{wideKillRule(1), wideKillRule(3), wideKillRule(6)}, ruleZoo...)
	for _, src := range srcs {
		e := MustParse(src)
		if got, want := conjuncts(e, false), len(DNF(e)); got != want {
			t.Errorf("%s: conjuncts = %d, DNF has %d", src, got, want)
		}
		if got, want := conjuncts(e, true), len(DNF(Not{e})); got != want {
			t.Errorf("NOT %s: conjuncts = %d, DNF has %d", src, got, want)
		}
	}
	if got := conjuncts(MustParse(wideKillRule(16)), true); got != maxConjuncts+1 {
		t.Errorf("2^16 conjuncts counted as %d, want saturation at %d", got, maxConjuncts+1)
	}
}

// TestBuildFromRulesBoundsDNF: a drop rule whose DNF exceeds
// maxConjuncts is rejected before anything expands it, while the same
// text as a keep rule (16 conjuncts), a rule exactly at the bound, and
// every zoo rule (at most 2 conjuncts) are accepted.
func TestBuildFromRulesBoundsDNF(t *testing.T) {
	for _, n := range []int{9, 16} {
		start := time.Now()
		_, err := BuildFromRules([]string{wideKillRule(n)}, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "conjunctions") {
			t.Errorf("%d-clause kill rule: err = %v, want a conjunction-bound error", n, err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%d-clause kill rule took %v to reject", n, d)
		}
	}
	if _, err := BuildFromRules([]string{wideKillRule(8)}, []string{wideKillRule(16)}, nil); err != nil {
		t.Errorf("rules within the bound rejected: %v", err)
	}
	for _, src := range ruleZoo {
		if _, err := BuildFromRules([]string{src}, []string{src}, nil); err != nil {
			t.Errorf("%s: %v", src, err)
		}
		if n := max(conjuncts(MustParse(src), false), conjuncts(MustParse(src), true)); n > 2 {
			t.Errorf("%s expands to %d conjuncts, want at most 2", src, n)
		}
	}
}
