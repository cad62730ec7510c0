package blocker

import (
	"fmt"
	"sort"

	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// A Blocker produces the candidate set C for two tables. Implementations
// cover the blocker types of Section 2 of the paper: attribute equivalence,
// hash, sorted neighborhood, overlap, similarity-based, and rule-based.
type Blocker interface {
	// Name returns a short human-readable identifier for reports.
	Name() string
	// Block applies the blocker to tables a and b and returns the
	// surviving candidate pairs.
	Block(a, b *table.Table) (*PairSet, error)
}

// KeyFunc extracts a blocking key from one tuple (given as the row values
// and the owning table, for schema lookups). Returning "" means the tuple
// has no key and joins with nothing.
type KeyFunc func(t *table.Table, row int) string

// AttrKey returns a KeyFunc that uses the normalized value of the named
// attribute.
func AttrKey(attr string) KeyFunc {
	return func(t *table.Table, row int) string {
		v, _ := t.ValueByName(row, attr)
		return tokenize.Normalize(v)
	}
}

// LastWordKey returns a KeyFunc hashing on the last word of the named
// attribute (the paper's lastword(a.Name) running example).
func LastWordKey(attr string) KeyFunc {
	return func(t *table.Table, row int) string {
		v, _ := t.ValueByName(row, attr)
		return tokenize.LastWord(v)
	}
}

// Hash is a hash (key-based) blocker: it keeps a pair iff both tuples have
// the same non-missing key under Key. Attribute equivalence is the special
// case Key = AttrKey(attr).
type Hash struct {
	// ID names the blocker in reports.
	ID string
	// Key extracts the blocking key.
	Key KeyFunc
}

// NewAttrEquivalence returns an attribute-equivalence blocker on attr
// (e.g., Q1: a.City = b.City from the paper's Figure 1).
func NewAttrEquivalence(attr string) *Hash {
	return &Hash{ID: "attr_equal_" + attr, Key: AttrKey(attr)}
}

// Name implements Blocker.
func (h *Hash) Name() string { return h.ID }

// Block implements Blocker by partitioning both tables into key buckets
// and emitting the cross product within each bucket.
func (h *Hash) Block(a, b *table.Table) (*PairSet, error) {
	if h.Key == nil {
		return nil, fmt.Errorf("blocker %s: nil key function", h.ID)
	}
	buckets := make(map[string][]int)
	for i := 0; i < a.NumRows(); i++ {
		if k := h.Key(a, i); k != "" {
			buckets[k] = append(buckets[k], i)
		}
	}
	out := NewPairSet()
	for j := 0; j < b.NumRows(); j++ {
		k := h.Key(b, j)
		if k == "" {
			continue
		}
		for _, i := range buckets[k] {
			out.Add(i, j)
		}
	}
	count(h.ID, out)
	return out, nil
}

// Union is a blocker whose output is the union of its members' outputs —
// the standard way to combine blockers to maximize recall, and the shape of
// the paper's Q2 and Q3.
type Union struct {
	ID      string
	Members []Blocker
}

// NewUnion combines blockers into a union blocker.
func NewUnion(id string, members ...Blocker) *Union {
	return &Union{ID: id, Members: members}
}

// Name implements Blocker.
func (u *Union) Name() string { return u.ID }

// Block implements Blocker.
func (u *Union) Block(a, b *table.Table) (*PairSet, error) {
	return u.union(func(m Blocker) (*PairSet, error) { return m.Block(a, b) })
}

// SortedNeighborhood keeps a pair when the tuples' keys fall within a
// sliding window of size Window in the merged key-sorted order of both
// tables (Section 2's sorted-neighborhood blocking).
type SortedNeighborhood struct {
	ID     string
	Key    KeyFunc
	Window int
}

// Name implements Blocker.
func (s *SortedNeighborhood) Name() string { return s.ID }

type snRec struct {
	key   string
	row   int
	fromA bool
}

// Block implements Blocker.
func (s *SortedNeighborhood) Block(a, b *table.Table) (*PairSet, error) {
	if s.Key == nil {
		return nil, fmt.Errorf("blocker %s: nil key function", s.ID)
	}
	if s.Window < 2 {
		return nil, fmt.Errorf("blocker %s: window must be at least 2, got %d", s.ID, s.Window)
	}
	recs := make([]snRec, 0, a.NumRows()+b.NumRows())
	for i := 0; i < a.NumRows(); i++ {
		if k := s.Key(a, i); k != "" {
			recs = append(recs, snRec{key: k, row: i, fromA: true})
		}
	}
	for j := 0; j < b.NumRows(); j++ {
		if k := s.Key(b, j); k != "" {
			recs = append(recs, snRec{key: k, row: j})
		}
	}
	sortStable(recs)
	out := NewPairSet()
	for i := range recs {
		hi := i + s.Window
		if hi > len(recs) {
			hi = len(recs)
		}
		for j := i + 1; j < hi; j++ {
			x, y := recs[i], recs[j]
			switch {
			case x.fromA && !y.fromA:
				out.Add(x.row, y.row)
			case !x.fromA && y.fromA:
				out.Add(y.row, x.row)
			}
		}
	}
	return out, nil
}

func sortStable(recs []snRec) {
	// Stable by key, then table, then row for determinism.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key != recs[j].key {
			return recs[i].key < recs[j].key
		}
		if recs[i].fromA != recs[j].fromA {
			return recs[i].fromA
		}
		return recs[i].row < recs[j].row
	})
}
