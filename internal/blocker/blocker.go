package blocker

import (
	"fmt"

	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// A Blocker produces the candidate set C for two tables. Implementations
// cover the blocker types every front builds: attribute equivalence,
// hash, rule-based (overlap and similarity-based included), learned and
// union.
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
