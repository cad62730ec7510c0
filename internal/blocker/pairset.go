// Package blocker implements the blocking substrate MatchCatcher debugs:
// the standard blocker types (attribute equivalence, hash, sorted
// neighborhood, overlap, similarity-based, and rule-based), efficient
// index-driven execution for each, the candidate-set representation, and a
// parser for the rule mini-language used to encode the paper's Table 2
// blockers.
//
// A blocker maps two tables A and B to a candidate set C ⊆ A×B of tuple
// pairs that survive blocking; all other pairs are "killed off". The
// debugger is blocker independent: it consumes only A, B, and C.
package blocker

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Pair identifies a candidate tuple pair by row indices into tables A and B.
type Pair struct {
	A, B int
}

// PairSet is a set of tuple pairs, the representation of a blocker's
// output C. It is built once and then read many times: the top-k join
// checks C on the first touch of every pair it scores.
//
// Add appends to an unsorted pending slice. The first read after an Add
// seals the set: the keys are sorted and deduplicated in place, and, when
// the A ids are dense (max A + 1 ≤ 2·Len + 1024), int32 row offsets
// indexed by A are built, so Contains is two loads and a scan of one
// short row; sparse A ids are binary-searched instead. A sealed set
// iterates in ascending (A, B) order.
//
// Reads (Contains, Len, ForEach, SortedPairs, and being the argument of
// Union) may run concurrently, sealed or not. Add and Union modify the
// set and must not run alongside anything else on it. The zero value is
// an empty set; NewPairSet returns one.
type PairSet struct {
	// dirty is set while pending holds keys not yet sealed into keys;
	// readers check it first, and seal under mu.
	dirty   atomic.Bool
	mu      sync.Mutex
	pending []int64
	keys    []int64 // sealed: ascending and distinct
	// rows[a]:rows[a+1] bounds A row a's keys; nil when the A ids are
	// sparse (or negative) and Contains binary-searches keys.
	rows []int32
}

// NewPairSet returns an empty pair set.
func NewPairSet() *PairSet { return &PairSet{} }

// bSign flips b's sign bit in a key, so that the keys' int64 order is
// the pairs' (A, B) order for negative b too.
const bSign = 1 << 31

func key(a, b int) int64 { return int64(a)<<32 | int64(uint32(b)^bSign) }

func unkey(k int64) (a, b int) { return int(k >> 32), int(int32(uint32(k) ^ bSign)) }

// Add inserts the pair (a, b).
func (s *PairSet) Add(a, b int) {
	if len(s.pending) == cap(s.pending) {
		s.reserve(max(cap(s.pending), 256)) // double
	}
	if len(s.pending) == 0 {
		s.dirty.Store(true)
	}
	s.pending = append(s.pending, key(a, b))
}

// reserve makes room for n more Adds, for a blocker that knows how many
// pairs it is about to emit.
func (s *PairSet) reserve(n int) {
	if len(s.pending)+n > cap(s.pending) {
		grown := make([]int64, len(s.pending), len(s.pending)+n)
		copy(grown, s.pending)
		s.pending = grown
	}
}

// seal folds pending adds into the sorted keys and rebuilds the row
// index. It is a no-op on a sealed set; concurrent callers seal once.
func (s *PairSet) seal() {
	if s.dirty.Load() {
		s.sealSlow()
	}
}

func (s *PairSet) sealSlow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty.Load() {
		return
	}
	p := s.pending
	slices.Sort(p)
	p = slices.Compact(p)
	if len(s.keys) == 0 {
		s.keys, s.pending = p, nil
	} else {
		s.keys, s.pending = mergeKeys(s.keys, p), p[:0]
	}
	s.index()
	s.dirty.Store(false)
}

// mergeKeys returns the sorted, distinct union of two sorted, distinct
// key slices in a new slice.
func mergeKeys(x, y []int64) []int64 {
	out := make([]int64, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			out = append(out, x[i])
			i++
		case x[i] > y[j]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// index builds the row offsets over the sealed keys, or drops them when
// the A ids are too sparse (or negative) for an index of max A + 2 ints.
func (s *PairSet) index() {
	s.rows = nil
	n := len(s.keys)
	if n == 0 || n > math.MaxInt32 {
		return
	}
	lo, hi := s.keys[0]>>32, s.keys[n-1]>>32
	if lo < 0 || hi+1 > 2*int64(n)+1024 {
		return
	}
	rows := make([]int32, hi+2)
	for i, k := range s.keys {
		rows[k>>32+1] = int32(i + 1)
	}
	// rows[a+1] is one past row a's last key, or 0 when row a is empty:
	// an empty row ends where the previous one did.
	for a := 1; a < len(rows); a++ {
		rows[a] = max(rows[a], rows[a-1])
	}
	s.rows = rows
}

// Contains reports whether the pair (a, b) is in the set.
func (s *PairSet) Contains(a, b int) bool {
	if s == nil {
		return false
	}
	s.seal()
	k := key(a, b)
	if s.rows == nil {
		_, ok := slices.BinarySearch(s.keys, k)
		return ok
	}
	if uint(a) >= uint(len(s.rows)-1) {
		return false
	}
	for _, x := range s.keys[s.rows[a]:s.rows[a+1]] {
		if x >= k {
			return x == k
		}
	}
	return false
}

// Len returns the number of pairs.
func (s *PairSet) Len() int {
	if s == nil {
		return 0
	}
	s.seal()
	return len(s.keys)
}

// Union adds every pair of other into s and returns s.
func (s *PairSet) Union(other *PairSet) *PairSet {
	if other == nil || other == s {
		return s
	}
	other.seal()
	if len(other.keys) == 0 {
		return s
	}
	s.seal()
	s.keys = mergeKeys(s.keys, other.keys)
	s.index()
	return s
}

// ForEach calls fn for every pair, in ascending (A, B) order.
func (s *PairSet) ForEach(fn func(a, b int)) {
	if s == nil {
		return
	}
	s.seal()
	for _, k := range s.keys {
		fn(unkey(k))
	}
}

// SortedPairs returns all pairs sorted by (A, B), for deterministic output.
func (s *PairSet) SortedPairs() []Pair {
	if s == nil {
		return nil
	}
	s.seal()
	out := make([]Pair, len(s.keys))
	for i, k := range s.keys {
		out[i].A, out[i].B = unkey(k)
	}
	return out
}
