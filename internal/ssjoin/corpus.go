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

// record is a tokenized tuple. Both slices are windows into slabs shared
// by every record of the same table.
type record struct {
	entries []tokenEntry
	// attrLen[i] is the number of distinct tokens of attribute i, so the
	// multiset length under config γ is Σ_{i∈γ} attrLen[i].
	attrLen []uint32
}

// lenUnder returns the multiset token length of the record under γ.
func (r *record) lenUnder(m config.Mask) int {
	n := 0
	for i, l := range r.attrLen {
		if m.Has(i) {
			n += int(l)
		}
	}
	return n
}

// Corpus is the tokenized view of two tables under the promising
// attributes of a config generation result. Building it once up front
// shares tokenization across every config's join.
type Corpus struct {
	Res   *config.Result
	recsA []record
	recsB []record
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
// allocated only the first time it is seen, and a record's entries and
// attribute lengths are windows into per-table slabs.
func NewCorpus(a, b *table.Table, res *config.Result) *Corpus {
	tokA, tokB := res.AvgTokens(0), res.AvgTokens(1)
	// The dictionary is presized to one token per tuple, capped at one
	// per 16 word tokens. On the Table-1 profiles that stays under twice
	// the distinct-token count, so it costs no more than the map's own
	// growth would, and saves most of it (210 KB on A-G and M2 x0.1).
	rows := a.NumRows() + b.NumRows()
	words := tokA*float64(a.NumRows()) + tokB*float64(b.NumRows())
	cb := corpusBuilder{attrs: res.Promising, dict: make(map[string]int32, min(rows, int(words/16)))}
	c := &Corpus{Res: res, recsA: cb.side(a, tokA), recsB: cb.side(b, tokB)}
	rank := ranks(cb.df)
	c.tokMask = make([]uint16, len(rank))
	for _, recs := range [][]record{c.recsA, c.recsB} {
		for i := range recs {
			es := recs[i].entries
			for j := range es {
				es[j].tok = rank[es[j].tok]
				c.tokMask[es[j].tok] |= es[j].mask
			}
			slices.SortFunc(es, func(x, y tokenEntry) int { return cmp.Compare(x.tok, y.tok) })
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
func (cb *corpusBuilder) side(t *table.Table, avgTokens float64) []record {
	nattr, rows, allocated := len(cb.attrs), t.NumRows(), 0
	cols := make([]int, nattr)
	for i, attr := range cb.attrs {
		cols[i] = t.AttrIndex(attr)
	}
	recs := make([]record, rows)
	lens := make([]uint32, rows*nattr)
	var slab []tokenEntry // the current chunk of the entry slab
	for row := range recs {
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
			lens[row*nattr+i] = n
		}
		if len(slab)+len(cb.touched) > cap(slab) {
			// The first chunk holds the word-token estimate, which a
			// table's distinct tokens per value rarely exceed; past it, a
			// new chunk as large as all earlier ones together: the slab
			// is never copied, takes O(log n) allocations, and at most
			// the last chunk's tail goes unused.
			allocated += cap(slab)
			want := allocated
			if want == 0 {
				want = max(int(avgTokens*float64(rows))+1, rows*nattr)
			}
			slab = make([]tokenEntry, 0, max(len(cb.touched), want))
		}
		lo := len(slab)
		for _, id := range cb.touched {
			slab = append(slab, tokenEntry{tok: id, mask: cb.rowMask[id]})
			cb.df[id]++
			cb.rowMask[id] = 0
		}
		cb.touched = cb.touched[:0]
		recs[row] = record{
			entries: slab[lo:len(slab):len(slab)],
			attrLen: lens[row*nattr : (row+1)*nattr : (row+1)*nattr],
		}
	}
	return recs
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
func (c *Corpus) rec(i int) *record {
	if i < len(c.recsA) {
		return &c.recsA[i]
	}
	return &c.recsB[i-len(c.recsA)]
}

// NumA and NumB return the table sizes.
func (c *Corpus) NumA() int { return len(c.recsA) }

// NumB returns the B-side table size.
func (c *Corpus) NumB() int { return len(c.recsB) }

// overlapUnder computes the multiset overlap of two records under γ by
// merging their rank-sorted token entries.
//
//mc:hotpath
func overlapUnder(x, y *record, m config.Mask) int {
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

// Sim computes a pair's multiset similarity under any config mask — the
// feature extractor uses this with single-attribute masks to build the
// verifier's per-attribute similarity features.
func (c *Corpus) Sim(a, b int32, m config.Mask, meas simfunc.SetMeasure) float64 {
	ra, rb := &c.recsA[a], &c.recsB[b]
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
		return c.recsA[rec].lenUnder(m)
	}
	return c.recsB[rec].lenUnder(m)
}
