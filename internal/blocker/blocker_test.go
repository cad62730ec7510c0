package blocker

import (
	"testing"

	"matchcatcher/internal/table"
)

// figure1Tables returns tables A and B from the paper's Figure 1.
func figure1Tables() (*table.Table, *table.Table) {
	a := table.MustNew("A", []string{"Name", "City", "Age"})
	a.MustAppend([]string{"Dave Smith", "Altanta", "18"})       // a1
	a.MustAppend([]string{"Daniel Smith", "LA", "18"})          // a2
	a.MustAppend([]string{"Joe Welson", "New York", "25"})      // a3
	a.MustAppend([]string{"Charles Williams", "Chicago", "45"}) // a4
	a.MustAppend([]string{"Charlie William", "Atlanta", "28"})  // a5
	b := table.MustNew("B", []string{"Name", "City", "Age"})
	b.MustAppend([]string{"David Smith", "Atlanta", "18"})      // b1
	b.MustAppend([]string{"Joe Wilson", "NY", "25"})            // b2
	b.MustAppend([]string{"Daniel W. Smith", "LA", "30"})       // b3
	b.MustAppend([]string{"Charles Williams", "Chicago", "45"}) // b4
	return a, b
}

func pairsOf(t *testing.T, b Blocker, ta, tb *table.Table) map[Pair]bool {
	t.Helper()
	c, err := b.Block(ta, tb)
	if err != nil {
		t.Fatalf("%s.Block: %v", b.Name(), err)
	}
	out := map[Pair]bool{}
	for _, p := range c.SortedPairs() {
		out[p] = true
	}
	return out
}

// TestQ1Figure1 reproduces C1 from the paper: attribute equivalence on
// City yields exactly (a2,b3), (a4,b4), (a5,b1).
func TestQ1Figure1(t *testing.T) {
	a, b := figure1Tables()
	got := pairsOf(t, NewAttrEquivalence("City"), a, b)
	want := map[Pair]bool{{1, 2}: true, {3, 3}: true, {4, 0}: true}
	if len(got) != len(want) {
		t.Fatalf("C1 = %v, want %v", got, want)
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing pair %v", p)
		}
	}
}

// TestQ2Figure1 reproduces C2: Q1 union lastword(Name) equality adds
// (a1,b1), (a1,b3), (a2,b1), (a2,b3).
func TestQ2Figure1(t *testing.T) {
	a, b := figure1Tables()
	q2 := NewUnion("Q2",
		NewAttrEquivalence("City"),
		&Hash{ID: "lastword_name", Key: LastWordKey("Name")},
	)
	got := pairsOf(t, q2, a, b)
	want := []Pair{{0, 0}, {0, 2}, {1, 0}, {1, 2}, {3, 3}, {4, 0}}
	if len(got) != len(want) {
		t.Fatalf("C2 has %d pairs (%v), want %d", len(got), got, len(want))
	}
	for _, p := range want {
		if !got[p] {
			t.Errorf("missing pair %v", p)
		}
	}
}

// TestQ3Figure1 reproduces C3: City equality union
// ed(lastword(Name)) <= 2, which additionally keeps (a3,b2) (Welson vs
// Wilson) and the (a5,*) Williams/William pairs.
func TestQ3Figure1(t *testing.T) {
	a, b := figure1Tables()
	q3 := NewUnion("Q3",
		NewAttrEquivalence("City"),
		NewEditDistance("Name", TransformLastWord, 2),
	)
	got := pairsOf(t, q3, a, b)
	// All of C2 plus (a3,b2), (a5,b4), (a4 pairs already there), plus
	// William~Williams matches within distance 2.
	mustHave := []Pair{{0, 0}, {0, 2}, {1, 0}, {1, 2}, {2, 1}, {3, 3}, {4, 0}, {4, 3}}
	for _, p := range mustHave {
		if !got[p] {
			t.Errorf("C3 missing pair %v", p)
		}
	}
	// The true match (a3,b2) killed by Q1 and Q2 must now survive.
	if !got[(Pair{2, 1})] {
		t.Error("Q3 should keep (a3,b2)")
	}
}

func TestHashSkipsMissingKeys(t *testing.T) {
	a := table.MustNew("A", []string{"k"})
	a.MustAppend([]string{""})
	a.MustAppend([]string{"x"})
	b := table.MustNew("B", []string{"k"})
	b.MustAppend([]string{""})
	b.MustAppend([]string{"x"})
	got := pairsOf(t, NewAttrEquivalence("k"), a, b)
	if len(got) != 1 || !got[(Pair{1, 1})] {
		t.Errorf("missing keys joined: %v", got)
	}
}

func TestHashNormalizesCase(t *testing.T) {
	a := table.MustNew("A", []string{"k"})
	a.MustAppend([]string{"New  York"})
	b := table.MustNew("B", []string{"k"})
	b.MustAppend([]string{"new york"})
	got := pairsOf(t, NewAttrEquivalence("k"), a, b)
	if !got[(Pair{0, 0})] {
		t.Error("case/whitespace-normalized keys should match")
	}
}

func TestHashNilKey(t *testing.T) {
	a, b := figure1Tables()
	if _, err := (&Hash{ID: "bad"}).Block(a, b); err == nil {
		t.Error("want error for nil key func")
	}
}

func TestUnionPropagatesErrors(t *testing.T) {
	a, b := figure1Tables()
	u := NewUnion("u", &Hash{ID: "bad"})
	if _, err := u.Block(a, b); err == nil {
		t.Error("union should propagate member error")
	}
}
