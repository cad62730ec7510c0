// Package floats is the approved home for floating-point equality in
// MatchCatcher. The floatcmp analyzer (internal/lint) bans raw ==/!=
// between computed float64s everywhere else, so every score comparison
// is forced through one of these helpers and is therefore (a) named,
// (b) documented, and (c) auditable in one place.
//
// Background: similarity scores reach comparisons via different code
// paths (different summation orders, fused vs. separate operations),
// and an exact == that "usually" holds turns into platform- and
// schedule-dependent tie-breaking. PR 1's top-k total order exists
// because of exactly that bug.
package floats

import "math"

// Equal reports whether a and b are exactly equal. It is deliberately
// identical to a == b (NaN != NaN, -0 == +0); its value is the name:
// call sites assert they want an exact tie — e.g. the deterministic
// total-order tie-break over (score, idA, idB) — rather than a
// tolerance check.
func Equal(a, b float64) bool { return a == b }

// EqualWithin reports whether a and b differ by at most eps in
// absolute value. NaNs are never within any tolerance. Use this for
// threshold and convergence checks where scores come from different
// computation orders.
func EqualWithin(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// Less orders a before b in the NaN-total order: NaN sorts before all
// numbers, and -0 before +0 is not distinguished. It gives sorts over
// scores a deterministic order even when scores contain NaN (which a
// raw < comparator would shuffle nondeterministically, since NaN
// comparisons are always false).
func Less(a, b float64) bool {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	if aNaN || bNaN {
		return aNaN && !bNaN
	}
	return a < b
}
