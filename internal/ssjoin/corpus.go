// Package ssjoin implements Section 4 of the paper: top-k string
// similarity joins over the config tree. It contains the exact
// single-config top-k join — a row-local prefix-filter join over the
// paper's prefix caps, standing in for Section 4.1's QJoin (DESIGN.md
// "Row-local join kernel") — and the joint executor that processes all
// configs of a tree in parallel while reusing top-k lists from parent
// to child configs.
//
// Token model: each attribute value contributes its distinct word tokens;
// a config's token bag is the disjoint union over its attributes, so a
// token appearing in m attributes of the config has multiplicity m.
// Similarity is the multiset form of Jaccard/cosine/Dice/overlap over
// those bags. Each token entry carries the bitmask of attributes holding
// it, so one tokenization serves every config: the overlap under γ is
// Σ_t min(popcount(maskA∧γ), popcount(maskB∧γ)).
package ssjoin

import (
	"cmp"
	"math/bits"
	"slices"

	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// tokenEntry is one distinct token of a tuple with the bitmask of
// promising attributes containing it. Entries are sorted by the global
// token order (rarest first).
type tokenEntry struct {
	tok  int32  // global token rank (0 = rarest)
	mask uint16 // attribute bitmask over config.Result.Promising (config.MaxAttrs bits)
}

// record is a tokenized tuple: a value view of one row of a table's
// CSR slabs, made on demand by Corpus.rec.
type record struct {
	entries []tokenEntry
	// attrLen[i] is the number of distinct tokens of attribute i, so the
	// multiset length under config γ is Σ_{i∈γ} attrLen[i].
	attrLen []uint32
}

// lenUnder returns the multiset token length of the record under γ.
func (r record) lenUnder(m config.Mask) int {
	n := 0
	for i, l := range r.attrLen {
		if m.Has(i) {
			n += int(l)
		}
	}
	return n
}

// csr is one table's records in compressed-row form: row i's entries
// are entries[off[i]:off[i+1]] and its attribute lengths
// attrLen[i*nattr:(i+1)*nattr]. Three slabs per table, no per-row
// slice headers.
type csr struct {
	off     []int32 // rows+1 offsets into entries
	entries []tokenEntry
	attrLen []uint32
	nattr   int
}

func (s *csr) rows() int { return len(s.off) - 1 }

// rec returns row i's view.
func (s *csr) rec(i int) record {
	return record{
		entries: s.entries[s.off[i]:s.off[i+1]:s.off[i+1]],
		attrLen: s.attrLen[i*s.nattr : (i+1)*s.nattr : (i+1)*s.nattr],
	}
}

// Corpus is the tokenized view of two tables under the promising
// attributes of a config generation result. Building it once up front
// shares tokenization across every config's join.
type Corpus struct {
	Res  *config.Result
	a, b csr
	// tokMask[t] is the OR over both tables' records of the attribute
	// mask of the token of rank t. Under config γ no record holds more
	// than popcount(tokMask[t]∧γ) instances of it, which bounds the id
	// range each token needs (see denseInstances).
	tokMask []uint16
}

// NewCorpus tokenizes both tables under res.Promising. Tokens are ranked
// globally by increasing document frequency so that string prefixes hold
// the rarest tokens; ties go to the token seen first (A's rows, then B's;
// promising-attribute order within a row; word order within a value).
//
// Each table is tokenized in one pass (DESIGN.md "Session preparation"):
// values are lowercased into one reused buffer, a token's string is
// allocated only the first time it is seen, and the records are written
// straight into the table's CSR slabs.
func NewCorpus(a, b *table.Table, res *config.Result) *Corpus {
	tokA, tokB := res.AvgTokens(0), res.AvgTokens(1)
	// The dictionary is presized to one token per tuple, capped at one
	// per 16 word tokens. On the Table-1 profiles that stays under twice
	// the distinct-token count, so it costs no more than the map's own
	// growth would, and saves most of it (210 KB on A-G and M2 x0.1).
	rows := a.NumRows() + b.NumRows()
	words := tokA*float64(a.NumRows()) + tokB*float64(b.NumRows())
	cb := corpusBuilder{attrs: res.Promising, dict: make(map[string]int32, min(rows, int(words/16)))}
	c := &Corpus{Res: res, a: cb.side(a, tokA), b: cb.side(b, tokB)}
	rank := ranks(cb.df)
	c.tokMask = make([]uint16, len(rank))
	for _, s := range []*csr{&c.a, &c.b} {
		for j := range s.entries {
			e := &s.entries[j]
			e.tok = rank[e.tok]
			c.tokMask[e.tok] |= e.mask
		}
		for i := range s.rows() {
			slices.SortFunc(s.entries[s.off[i]:s.off[i+1]], func(x, y tokenEntry) int { return cmp.Compare(x.tok, y.tok) })
		}
	}
	return c
}

// corpusBuilder holds NewCorpus's token dictionary and its dense per-id
// scratch, shared by the two sides.
type corpusBuilder struct {
	attrs []string
	dict  map[string]int32 // token -> id, assigned in first-occurrence order
	df    []int32          // df[id]: number of records holding the token
	// rowMask[id] is the token's attribute mask in the current row; zero
	// for every id between rows. touched lists the ids it is nonzero for.
	rowMask []uint16
	touched []int32
	buf     []byte // the current value, lowercased
}

// side tokenizes one table whose tuples average avgTokens word tokens.
// Its records' entries carry token ids, not ranks, and are unsorted;
// NewCorpus ranks and sorts them once both sides have counted their
// document frequencies.
//
// The entry slab starts at the word-token estimate: a tuple's distinct
// tokens rarely exceed its word tokens (1% under on M2, 7-32% under on
// A-G and F-Z). Past it the slab grows by append; rows hold offsets, not
// windows, so a move costs only the copy.
func (cb *corpusBuilder) side(t *table.Table, avgTokens float64) csr {
	nattr, rows := len(cb.attrs), t.NumRows()
	cols := make([]int, nattr)
	for i, attr := range cb.attrs {
		cols[i] = t.AttrIndex(attr)
	}
	s := csr{
		off:     make([]int32, rows+1),
		entries: make([]tokenEntry, 0, max(int(avgTokens*float64(rows))+1, rows*nattr)),
		attrLen: make([]uint32, rows*nattr),
		nattr:   nattr,
	}
	for row := range rows {
		for i, col := range cols {
			if col < 0 {
				continue
			}
			bit := uint16(1) << uint(i)
			cb.buf = tokenize.AppendLower(cb.buf[:0], t.Value(row, col))
			n := uint32(0)
			for lo, hi := tokenize.NextWord(cb.buf, 0); lo < hi; lo, hi = tokenize.NextWord(cb.buf, hi) {
				id, ok := cb.dict[string(cb.buf[lo:hi])]
				if !ok {
					id = int32(len(cb.df))
					cb.dict[string(cb.buf[lo:hi])] = id
					cb.df = append(cb.df, 0)
					cb.rowMask = append(cb.rowMask, 0)
				}
				m := cb.rowMask[id]
				if m&bit != 0 {
					continue // repeated within this value
				}
				if m == 0 {
					cb.touched = append(cb.touched, id)
				}
				cb.rowMask[id] = m | bit
				n++
			}
			s.attrLen[row*nattr+i] = n
		}
		for _, id := range cb.touched {
			s.entries = append(s.entries, tokenEntry{tok: id, mask: cb.rowMask[id]})
			cb.df[id]++
			cb.rowMask[id] = 0
		}
		cb.touched = cb.touched[:0]
		s.off[row+1] = int32(len(s.entries))
	}
	return s
}

// ranks returns each id's global rank: ids ordered by document frequency
// ascending, ties by id (first occurrence). It is a counting sort on df.
func ranks(df []int32) []int32 {
	maxDF := int32(0)
	for _, d := range df {
		maxDF = max(maxDF, d)
	}
	next := make([]int32, maxDF+2) // next[d]: the next rank for df d
	for _, d := range df {
		next[d+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	rank := make([]int32, len(df))
	for id, d := range df {
		rank[id] = next[d]
		next[d]++
	}
	return rank
}

// rec returns record i, numbering A's records first, then B's.
func (c *Corpus) rec(i int) record {
	if n := c.a.rows(); i >= n {
		return c.b.rec(i - n)
	}
	return c.a.rec(i)
}

// NumA and NumB return the table sizes.
func (c *Corpus) NumA() int { return c.a.rows() }

// NumB returns the B-side table size.
func (c *Corpus) NumB() int { return c.b.rows() }

// overlapUnder computes the multiset overlap of two records under γ by
// merging their rank-sorted token entries.
//
//mc:hotpath
func overlapUnder(x, y record, m config.Mask) int {
	o := 0
	i, j := 0, 0
	mm := uint16(m)
	for i < len(x.entries) && j < len(y.entries) {
		ex, ey := x.entries[i], y.entries[j]
		switch {
		case ex.tok < ey.tok:
			i++
		case ex.tok > ey.tok:
			j++
		default:
			ca := bits.OnesCount16(ex.mask & mm)
			cb := bits.OnesCount16(ey.mask & mm)
			if ca > 0 && cb > 0 {
				o += min(ca, cb)
			}
			i++
			j++
		}
	}
	return o
}

// Sim computes a pair's multiset similarity under any config mask. It
// is the per-mask form of what Overlaps gives the feature extractor in
// one merge, and that path's test oracle.
func (c *Corpus) Sim(a, b int32, m config.Mask, meas simfunc.SetMeasure) float64 {
	ra, rb := c.a.rec(int(a)), c.b.rec(int(b))
	lx, ly := ra.lenUnder(m), rb.lenUnder(m)
	if lx == 0 || ly == 0 {
		return 0
	}
	return meas.FromOverlap(overlapUnder(ra, rb, m), lx, ly)
}

// LenUnder returns a record's multiset token length under a config mask;
// side 0 is table A, side 1 is table B.
func (c *Corpus) LenUnder(side int, rec int32, m config.Mask) int {
	if side == 0 {
		return c.a.rec(int(rec)).lenUnder(m)
	}
	return c.b.rec(int(rec)).lenUnder(m)
}

// AttrLens returns the distinct-token count of each promising attribute
// of a record, indexed like Res.Promising; side 0 is table A, side 1 is
// table B. The slice is the corpus's own: read it, do not write it.
func (c *Corpus) AttrLens(side int, rec int32) []uint32 {
	if side == 0 {
		return c.a.rec(int(rec)).attrLen
	}
	return c.b.rec(int(rec)).attrLen
}

// Overlaps merges A-row a with B-row b once and returns their overlap
// under the full mask of every promising attribute; attr[i] receives
// their overlap under the single attribute i (the common tokens both
// hold in attribute i). Each equals the overlap Sim computes under that
// mask.
//
//mc:hotpath
func (c *Corpus) Overlaps(a, b int32, attr *[config.MaxAttrs]int32) int {
	*attr = [config.MaxAttrs]int32{}
	x, y := c.a.rec(int(a)).entries, c.b.rec(int(b)).entries
	full := 0
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		ex, ey := x[i], y[j]
		switch {
		case ex.tok < ey.tok:
			i++
		case ex.tok > ey.tok:
			j++
		default:
			full += min(bits.OnesCount16(ex.mask), bits.OnesCount16(ey.mask))
			for both := ex.mask & ey.mask; both != 0; both &= both - 1 {
				attr[bits.TrailingZeros16(both)]++
			}
			i++
			j++
		}
	}
	return full
}
