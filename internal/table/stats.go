package table

import "unicode"

// AttrStats summarizes one attribute of one table. These statistics drive
// the e-score (Definition 3.1 of the paper) and the long-attribute check
// (Section 3.2).
type AttrStats struct {
	Attr        string  // attribute name
	NonMissing  int     // number of tuples with a non-missing value
	Unique      int     // number of distinct non-missing values
	AvgTokenLen float64 // average number of word tokens over non-missing values

	// NonMissingRatio is n(f) of Definition 3.1: NonMissing / NumRows.
	NonMissingRatio float64
	// UniqueRatio is u(f) of Definition 3.1: Unique / NonMissing
	// (zero when every value is missing).
	UniqueRatio float64
}

// EScoreComponent returns e_T(f) = 2·n(f)·u(f) / (n(f)+u(f)), the harmonic
// mean of the non-missing and unique ratios (Definition 3.1). It is zero
// when both ratios are zero.
func (s AttrStats) EScoreComponent() float64 {
	n, u := s.NonMissingRatio, s.UniqueRatio
	if n+u == 0 {
		return 0
	}
	return 2 * n * u / (n + u)
}

// Stats computes per-attribute statistics for the whole table. Values are
// word-tokenized by whitespace for the length statistic.
func (t *Table) Stats() []AttrStats {
	out := make([]AttrStats, len(t.attrs))
	for j, a := range t.attrs {
		out[j] = t.AttrStatsFor(a)
		_ = a
	}
	return out
}

// AttrStatsFor computes statistics for the single named attribute. It
// returns a zero AttrStats if the attribute is not in the schema.
func (t *Table) AttrStatsFor(attr string) AttrStats {
	j := t.AttrIndex(attr)
	if j < 0 {
		return AttrStats{Attr: attr}
	}
	seen := make(map[string]struct{})
	s := AttrStats{Attr: attr}
	totalTokens := 0
	for _, row := range t.rows {
		v := row[j]
		if v == Missing {
			continue
		}
		s.NonMissing++
		seen[v] = struct{}{}
		totalTokens += CountFields(v)
	}
	s.Unique = len(seen)
	if n := len(t.rows); n > 0 {
		s.NonMissingRatio = float64(s.NonMissing) / float64(n)
	}
	if s.NonMissing > 0 {
		s.UniqueRatio = float64(s.Unique) / float64(s.NonMissing)
		s.AvgTokenLen = float64(totalTokens) / float64(s.NonMissing)
	}
	return s
}

// AvgTupleTokenLen returns the average total number of word tokens per
// tuple, summed over the given attributes (all attributes if attrs is nil).
// It gates the overlap-reuse optimization (Section 4.2: reuse triggers only
// when tuples average at least t tokens).
func (t *Table) AvgTupleTokenLen(attrs []string) float64 {
	if t.NumRows() == 0 {
		return 0
	}
	cols := make([]int, 0, len(t.attrs))
	if attrs == nil {
		for j := range t.attrs {
			cols = append(cols, j)
		}
	} else {
		for _, a := range attrs {
			if j := t.AttrIndex(a); j >= 0 {
				cols = append(cols, j)
			}
		}
	}
	total := 0
	for _, row := range t.rows {
		for _, j := range cols {
			if row[j] != Missing {
				total += CountFields(row[j])
			}
		}
	}
	return float64(total) / float64(t.NumRows())
}

// CountFields returns len(strings.Fields(s)) without building the
// fields: the number of maximal runs of runes that are not
// unicode.IsSpace (an invalid UTF-8 byte counts as a non-space rune).
func CountFields(s string) int {
	n := 0
	inField := false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inField {
			n++
		}
		inField = !space
	}
	return n
}
