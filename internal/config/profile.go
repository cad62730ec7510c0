package config

import (
	"strconv"
	"strings"

	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// colProfile is everything Generate reads about one column of one table,
// gathered in one scan: the e-score and long-attribute statistics, and
// the classifier's inputs over normalized (trimmed, lowercased) values.
type colProfile struct {
	stats table.AttrStats
	// normUnique counts distinct normalized values, saturating at
	// maxUnique+1: past that the column cannot be categorical.
	normUnique int
	numeric    int  // values strconv.ParseFloat accepts once normalized
	allBool    bool // every value is a boolean token once normalized
}

// class applies the rule-based classifier to one column: numeric if at
// least 90% of non-missing values parse as numbers, boolean if every
// value is a boolean token, categorical if values are short, repeat, and
// number at most maxUnique distinct, string otherwise. maxUnique must be
// the one the profiler saturated normUnique at.
func (c *colProfile) class(maxUnique int) AttrClass {
	s := &c.stats
	switch {
	case s.NonMissing == 0:
		return ClassString
	case c.allBool:
		return ClassBoolean
	case float64(c.numeric) >= 0.9*float64(s.NonMissing):
		return ClassNumeric
	case c.normUnique <= maxUnique && c.normUnique < s.NonMissing && s.AvgTokenLen <= 3:
		return ClassCategorical
	}
	return ClassString
}

// valueFacts caches what a column scan derives from one distinct value.
type valueFacts struct {
	tokens  int // table.CountFields of the value
	numeric bool
	boolean bool
}

// profiler scans columns into profiles. Its sets and buffer are reused
// from column to column (clear keeps a map's buckets), so a scan
// allocates only for normalized values that differ from their raw form.
type profiler struct {
	maxUnique int
	vals      map[string]valueFacts // distinct raw values of the column
	norm      map[string]struct{}   // distinct normalized values
	buf       []byte                // the current value, normalized
}

// newProfiler returns a profiler for columns of up to rows values.
func newProfiler(maxUnique, rows int) *profiler {
	return &profiler{
		maxUnique: maxUnique,
		vals:      make(map[string]valueFacts, rows),
		norm:      make(map[string]struct{}),
	}
}

// profile scans column attr of t. Each distinct value is normalized and
// examined once; repeats cost one map lookup.
func (p *profiler) profile(t *table.Table, attr string) colProfile {
	c := colProfile{allBool: true}
	j := t.AttrIndex(attr)
	if j < 0 {
		c.stats = table.AttrStats{Attr: attr}
		return c
	}
	clear(p.vals)
	clear(p.norm)
	nonMissing, tokens := 0, 0
	for i := 0; i < t.NumRows(); i++ {
		v := t.Value(i, j)
		if v == table.Missing {
			continue
		}
		f, ok := p.vals[v]
		if !ok {
			f = p.facts(v)
			p.vals[v] = f
		}
		nonMissing++
		tokens += f.tokens
		if f.numeric {
			c.numeric++
		}
		c.allBool = c.allBool && f.boolean
	}
	c.normUnique = len(p.norm)
	c.stats = table.NewAttrStats(attr, t.NumRows(), nonMissing, len(p.vals), tokens)
	return c
}

// facts examines one distinct value and adds its normalized form to the
// normalized set (until the set has outgrown any categorical column).
// Its word count is the same raw or normalized: lowercasing never turns
// a space into a non-space or back, and trimming drops only spaces.
func (p *profiler) facts(v string) valueFacts {
	trimmed := strings.TrimSpace(v)
	p.buf = tokenize.AppendLower(p.buf[:0], trimmed)
	f := valueFacts{tokens: table.CountFields(v), boolean: boolTokens[string(p.buf)]}
	if _, ok := p.norm[string(p.buf)]; !ok && len(p.norm) <= p.maxUnique {
		p.norm[p.normString(trimmed)] = struct{}{}
	}
	if mayParseFloat(p.buf) {
		_, err := strconv.ParseFloat(p.normString(trimmed), 64)
		f.numeric = err == nil
	}
	return f
}

// normString returns p.buf, the normalized trimmed value, as a string:
// trimmed itself when lowercasing left it unchanged, so that most values
// allocate nothing.
func (p *profiler) normString(trimmed string) string {
	if string(p.buf) == trimmed {
		return trimmed
	}
	return string(p.buf)
}
