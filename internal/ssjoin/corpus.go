// Package ssjoin implements Section 4 of the paper: top-k string
// similarity joins over the config tree. It contains the improved
// single-config algorithm QJoin (prefix-event branch-and-bound with
// q-common-token score deferral), its TopKJoin baseline (q = 1), and the
// joint executor that processes all configs of a tree in parallel while
// reusing similarity-score computations (the overlap database H) and
// top-k lists from parent to child configs.
//
// Token model: each attribute value contributes its distinct word tokens;
// a config's token bag is the disjoint union over its attributes, so a
// token appearing in m attributes of the config has multiplicity m.
// Similarity is the multiset form of Jaccard/cosine/Dice/overlap over
// those bags. This makes overlap reuse exact: for every scored pair the
// common tokens' attribute bitmasks are recorded, and the overlap under
// any sub-config γ is Σ_t min(popcount(maskA∧γ), popcount(maskB∧γ)).
package ssjoin

import (
	"math/bits"
	"sort"

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
	mask uint16 // attribute bitmask over config.Result.Promising
}

// record is a tokenized tuple.
type record struct {
	entries []tokenEntry
	// attrLen[i] is the number of distinct tokens of attribute i, so the
	// multiset length under config γ is Σ_{i∈γ} attrLen[i].
	attrLen []uint16
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
	// AvgTokens is the average multiset token length per tuple under the
	// full config, across both tables; it gates overlap reuse
	// (Section 4.2: reuse only pays off for long tuples).
	AvgTokens float64
}

// NewCorpus tokenizes both tables under res.Promising. Tokens are ranked
// globally by increasing document frequency so that string prefixes hold
// the rarest tokens.
func NewCorpus(a, b *table.Table, res *config.Result) *Corpus {
	dict := map[string]int32{}
	var df []int32
	type rawRec struct {
		toks  []int32
		masks []uint16
		attrs []uint16
	}
	build := func(t *table.Table) []rawRec {
		cols := make([]int, len(res.Promising))
		for i, attr := range res.Promising {
			cols[i] = t.AttrIndex(attr)
		}
		recs := make([]rawRec, t.NumRows())
		maskOf := map[int32]uint16{}
		for row := range recs {
			clear(maskOf)
			attrLen := make([]uint16, len(res.Promising))
			for i, col := range cols {
				if col < 0 {
					continue
				}
				toks := tokenize.WordSet(t.Value(row, col))
				attrLen[i] = uint16(len(toks))
				for _, s := range toks {
					id, ok := dict[s]
					if !ok {
						id = int32(len(df))
						dict[s] = id
						df = append(df, 0)
					}
					maskOf[id] |= 1 << uint(i)
				}
			}
			r := rawRec{attrs: attrLen}
			for id, m := range maskOf {
				r.toks = append(r.toks, id)
				r.masks = append(r.masks, m)
				df[id]++
			}
			recs[row] = r
		}
		return recs
	}
	rawA := build(a)
	rawB := build(b)

	// Global order: rarest token gets rank 0.
	ids := make([]int32, len(df))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(x, y int) bool {
		if df[ids[x]] != df[ids[y]] {
			return df[ids[x]] < df[ids[y]]
		}
		return ids[x] < ids[y]
	})
	rank := make([]int32, len(df))
	for r, id := range ids {
		rank[id] = int32(r)
	}

	tokMask := make([]uint16, len(df))
	finish := func(raw []rawRec) []record {
		recs := make([]record, len(raw))
		for i, rr := range raw {
			entries := make([]tokenEntry, len(rr.toks))
			for j, id := range rr.toks {
				entries[j] = tokenEntry{tok: rank[id], mask: rr.masks[j]}
				tokMask[rank[id]] |= rr.masks[j]
			}
			sort.Slice(entries, func(x, y int) bool { return entries[x].tok < entries[y].tok })
			recs[i] = record{entries: entries, attrLen: rr.attrs}
		}
		return recs
	}
	c := &Corpus{Res: res, recsA: finish(rawA), recsB: finish(rawB), tokMask: tokMask}
	full := config.Mask(1)<<uint(len(res.Promising)) - 1
	n, total := len(c.recsA)+len(c.recsB), 0
	for i := 0; i < n; i++ {
		total += c.rec(i).lenUnder(full)
	}
	if n > 0 {
		c.AvgTokens = float64(total) / float64(n)
	}
	return c
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

// maskPair packs the two attribute bitmasks of one common token.
type maskPair uint32

func packMasks(ma, mb uint16) maskPair { return maskPair(uint32(ma)<<16 | uint32(mb)) }

func (p maskPair) overlapUnder(m config.Mask) int {
	ma := uint16(p>>16) & uint16(m)
	mb := uint16(p) & uint16(m)
	return min(bits.OnesCount16(ma), bits.OnesCount16(mb))
}

// overlapUnder computes the multiset overlap of two records under γ by
// merging their rank-sorted token entries, and optionally captures the
// common tokens' mask pairs for the reuse database. Masks are stored
// unrestricted, so they remain valid for any sub-config.
func overlapUnder(x, y *record, m config.Mask, capture bool) (int, []maskPair) {
	var pairs []maskPair
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
				if capture {
					pairs = append(pairs, packMasks(ex.mask, ey.mask))
				}
			}
			i++
			j++
		}
	}
	return o, pairs
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
	o, _ := overlapUnder(ra, rb, m, false)
	return meas.FromOverlap(o, lx, ly)
}

// LenUnder returns a record's multiset token length under a config mask;
// side 0 is table A, side 1 is table B.
func (c *Corpus) LenUnder(side int, rec int32, m config.Mask) int {
	if side == 0 {
		return c.recsA[rec].lenUnder(m)
	}
	return c.recsB[rec].lenUnder(m)
}
