package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/ssjoin"
)

// digest fingerprints what one debugging session showed its user: the
// join's size, the top-k lists (pairs and exact scores), every batch with
// the labels given to it, the ranked candidate pages, and the final
// matches and iteration count. Two sessions over the same inputs agree on
// it whatever the worker count or transport. Join statistics stay out:
// list-reuse counters depend on which worker finished first.
//
// Fields are appended to a buffer that is hashed in large blocks: the
// digest runs inside the timed session, and one small hash write per
// list entry would make it a visible share of a short session.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New(), buf: make([]byte, 0, 1<<16)} }

func (d *digest) ints(tag byte, vs ...int64) {
	d.buf = append(d.buf, tag)
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	}
	if len(d.buf) >= 1<<16 {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
}

func (d *digest) pairs(tag byte, ps []blocker.Pair) {
	d.ints(tag, int64(len(ps)))
	for _, p := range ps {
		d.ints('p', int64(p.A), int64(p.B))
	}
}

// join records the sizes the join reports: configs joined and |E|.
func (d *digest) join(configs, candidates int) { d.ints('j', int64(configs), int64(candidates)) }

// lists records every config's top-k list. Only in-process sessions can
// see them; over HTTP the join reports sizes only.
func (d *digest) lists(ls []ssjoin.TopKList) {
	d.ints('L', int64(len(ls)))
	for _, l := range ls {
		d.ints('l', int64(l.Config), int64(len(l.Pairs)))
		for _, p := range l.Pairs {
			d.ints('s', int64(p.A), int64(p.B), int64(math.Float64bits(p.Score)))
		}
	}
}

// batch records one shown batch and the labels the user gave it.
func (d *digest) batch(ps []blocker.Pair, labels []bool) {
	d.pairs('b', ps)
	for _, y := range labels {
		v := int64(0)
		if y {
			v = 1
		}
		d.ints('y', v)
	}
}

// pages records the ranked candidates a client paged through.
func (d *digest) pages(ps []blocker.Pair) { d.pairs('c', ps) }

// final records the session's outcome.
func (d *digest) final(matches []blocker.Pair, iterations int) {
	d.pairs('m', matches)
	d.ints('i', int64(iterations))
}

func (d *digest) sum() string {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(d.h.Sum(nil))
}
