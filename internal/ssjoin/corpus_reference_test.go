package ssjoin

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"matchcatcher/internal/config"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// referenceCorpus is NewCorpus as it was before the one-pass slab build:
// tokenize.WordSet per value, a mask map per row, a record per row with
// its own entries and lengths (packed into the CSR slabs at the end),
// and a comparison sort for the global order. It is the oracle TestCorpusMatchesReference and FuzzNewCorpus
// hold NewCorpus to.
func referenceCorpus(a, b *table.Table, res *config.Result) *Corpus {
	dict := map[string]int32{}
	var df []int32
	type rawRec struct {
		toks  []int32
		masks []uint16
		attrs []uint32
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
			attrLen := make([]uint32, len(res.Promising))
			for i, col := range cols {
				if col < 0 {
					continue
				}
				toks := tokenize.WordSet(t.Value(row, col))
				attrLen[i] = uint32(len(toks))
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
	finish := func(raw []rawRec) csr {
		s := csr{off: []int32{0}, nattr: len(res.Promising)}
		for _, rr := range raw {
			entries := make([]tokenEntry, len(rr.toks))
			for j, id := range rr.toks {
				entries[j] = tokenEntry{tok: rank[id], mask: rr.masks[j]}
				tokMask[rank[id]] |= rr.masks[j]
			}
			sort.Slice(entries, func(x, y int) bool { return entries[x].tok < entries[y].tok })
			s.entries = append(s.entries, entries...)
			s.attrLen = append(s.attrLen, rr.attrs...)
			s.off = append(s.off, int32(len(s.entries)))
		}
		return s
	}
	return &Corpus{Res: res, a: finish(rawA), b: finish(rawB), tokMask: tokMask}
}

// corpusDiff describes the first difference between two corpora — token
// ranks and masks of every entry, attribute lengths and tokMask — or
// returns "" when they are equal by value.
func corpusDiff(got, want *Corpus) string {
	for side, recs := range [2][2]*csr{{&got.a, &want.a}, {&got.b, &want.b}} {
		g, w := recs[0], recs[1]
		if g.rows() != w.rows() {
			return fmt.Sprintf("side %d: %d records, want %d", side, g.rows(), w.rows())
		}
		for i := range g.rows() {
			if ge, we := g.rec(i).entries, w.rec(i).entries; !slices.Equal(ge, we) {
				return fmt.Sprintf("side %d record %d: entries %v, want %v", side, i, ge, we)
			}
			if gl, wl := g.rec(i).attrLen, w.rec(i).attrLen; !slices.Equal(gl, wl) {
				return fmt.Sprintf("side %d record %d: attrLen %v, want %v", side, i, gl, wl)
			}
		}
	}
	if !slices.Equal(got.tokMask, want.tokMask) {
		return fmt.Sprintf("tokMask %v, want %v", got.tokMask, want.tokMask)
	}
	return ""
}

// TestCorpusMatchesReference holds NewCorpus to referenceCorpus on every
// datagen profile, each cut to at most ~1500 rows a side.
func TestCorpusMatchesReference(t *testing.T) {
	for _, p := range append(datagen.AllProfiles(), datagen.Skewed()) {
		if n := max(p.RowsA, p.RowsB); n > 1500 {
			p = p.Scaled(1500 / float64(n))
		}
		d := datagen.MustGenerate(p)
		res, err := config.Generate(d.A, d.B, config.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if diff := corpusDiff(NewCorpus(d.A, d.B, res), referenceCorpus(d.A, d.B, res)); diff != "" {
			t.Errorf("%s: %s", p.Name, diff)
		}
	}
}

// fuzzFragments are the pieces FuzzNewCorpus builds cells from: case
// folds that change a rune's byte length (İ, ẞ, Ⱥ, the Kelvin sign),
// invalid UTF-8, a literal U+FFFD, separators, digits and repeats.
var fuzzFragments = []string{
	"", " ", "a", "B", "ab", "AB", "Ab", "x x", "7", "-", ",",
	"İ", "ı", "ẞ", "ß", "Ⱥ", "\u212A", "é", "É", "日",
	"\xff", "\xc3", "\uFFFD", "\t",
}

// decodeFuzzTables turns raw fuzz bytes into two tables over one to
// three shared attributes. Byte values past the fragment list end a cell
// or a row; rows alternate between A and B, at most 12 a side.
func decodeFuzzTables(data []byte) (a, b *table.Table) {
	nattr := 1
	if len(data) > 0 {
		nattr, data = 1+int(data[0]%3), data[1:]
	}
	attrs := []string{"x", "y", "z"}[:nattr]
	a, b = table.MustNew("A", attrs), table.MustNew("B", attrs)
	var row []string
	var cell strings.Builder
	flushRow := func() {
		row = append(row, cell.String())
		cell.Reset()
		for len(row) < nattr {
			row = append(row, table.Missing)
		}
		if t := []*table.Table{a, b}[(a.NumRows()+b.NumRows())%2]; t.NumRows() < 12 {
			t.MustAppend(row[:nattr])
		}
		row = row[:0]
	}
	for _, c := range data {
		switch k := int(c) % (len(fuzzFragments) + 2); {
		case k < len(fuzzFragments):
			cell.WriteString(fuzzFragments[k])
		case k == len(fuzzFragments) && len(row) < nattr-1:
			row = append(row, cell.String())
			cell.Reset()
		default:
			flushRow()
		}
	}
	flushRow()
	return a, b
}

// FuzzNewCorpus holds NewCorpus to referenceCorpus on fuzzed two-sided
// tables (case folds that change byte length, invalid UTF-8, missing
// and repeated words): every token rank, mask and length and tokMask
// must agree by value (DESIGN.md "Session preparation").
func FuzzNewCorpus(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 2, 25, 3, 4, 3})
	f.Add([]byte{1, 11, 1, 12, 24, 13, 14, 25, 15, 16, 17, 24, 20, 21, 22})
	f.Add([]byte{2, 5, 1, 5, 24, 5, 24, 19, 25, 6, 1, 6, 24, 0, 24, 18})
	f.Add([]byte{0, 18, 1, 13, 25, 17, 1, 14}) // "É ẞ" in A, "é ß" in B: one token each
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeFuzzTables(data)
		res, err := config.Generate(a, b, config.Options{CuratedAttrs: a.Attrs()})
		if err != nil {
			t.Fatal(err)
		}
		if diff := corpusDiff(NewCorpus(a, b, res), referenceCorpus(a, b, res)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestAttrLenBeyondUint16 pins the exact similarity of a value with more
// than 65,535 distinct tokens: a 16-bit length would wrap to 1 and make
// its Jaccard against a two-token value 2.
func TestAttrLenBeyondUint16(t *testing.T) {
	const n = 1<<16 + 1
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i+1)
	}
	a := table.MustNew("A", []string{"d"})
	a.MustAppend([]string{strings.Join(words, " ")})
	b := table.MustNew("B", []string{"d"})
	b.MustAppend([]string{"w1 w2"})
	res, err := config.Generate(a, b, config.Options{CuratedAttrs: []string{"d"}})
	if err != nil {
		t.Fatal(err)
	}
	cor := NewCorpus(a, b, res)
	if got := cor.LenUnder(0, 0, 1); got != n {
		t.Errorf("LenUnder = %d, want %d", got, n)
	}
	if got, want := cor.Sim(0, 0, 1, simfunc.Jaccard), 2.0/n; got != want {
		t.Errorf("Jaccard = %v, want %v", got, want)
	}
}

// TestNewCorpusAllocsFlatInRows checks that NewCorpus allocates per
// distinct token and per table, not per row: doubling both tables' rows
// without new vocabulary adds at most a small constant of allocations.
func TestNewCorpusAllocsFlatInRows(t *testing.T) {
	d := datagen.MustGenerate(datagen.AmazonGoogle().Scaled(0.1))
	double := func(t0 *table.Table) *table.Table {
		t2 := table.MustNew(t0.Name(), t0.Attrs())
		for k := 0; k < 2; k++ {
			for i := 0; i < t0.NumRows(); i++ {
				t2.MustAppend(t0.Row(i))
			}
		}
		return t2
	}
	a2, b2 := double(d.A), double(d.B)
	res, err := config.Generate(d.A, d.B, config.Options{})
	if err != nil {
		t.Fatal(err)
	}
	once := testing.AllocsPerRun(5, func() { NewCorpus(d.A, d.B, res) })
	twice := testing.AllocsPerRun(5, func() { NewCorpus(a2, b2, res) })
	if twice > once+4 {
		t.Errorf("NewCorpus allocs: %v for %d+%d rows, %v for twice the rows", once, d.A.NumRows(), d.B.NumRows(), twice)
	}
	t.Logf("allocs %v -> %v", once, twice)
}

// TestCorpusBytesPerRow checks that NewCorpus keeps its records in the
// CSR slabs alone: on 8,000 rows over a 40-word vocabulary, everything
// it allocates beyond the slabs (offsets, entries, attribute lengths,
// tokMask) comes to under 12 B per row. That leaves room for the
// presized dictionary and the scratch, not for a record's two slice
// headers (48 B).
func TestCorpusBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(36))
	attrs := []string{"name", "city"}
	a, b := table.MustNew("A", attrs), table.MustNew("B", attrs)
	for _, tb := range []*table.Table{a, b} {
		for i := 0; i < 4000; i++ {
			tb.MustAppend([]string{fmt.Sprintf("w%d", rng.Intn(40)), fmt.Sprintf("w%d", rng.Intn(40))})
		}
	}
	res, err := config.Generate(a, b, config.Options{CuratedAttrs: attrs})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cor := NewCorpus(a, b, res)
	runtime.ReadMemStats(&after)
	slabs := 2 * cap(cor.tokMask)
	for _, s := range []*csr{&cor.a, &cor.b} {
		slabs += 4*cap(s.off) + int(unsafe.Sizeof(tokenEntry{}))*cap(s.entries) + 4*cap(s.attrLen)
	}
	rows := a.NumRows() + b.NumRows()
	rest := int(after.TotalAlloc-before.TotalAlloc) - slabs
	t.Logf("%d rows: %d B in slabs, %d B beyond them", rows, slabs, rest)
	const budget = 12
	if perRow := float64(rest) / float64(rows); perRow > budget {
		t.Errorf("NewCorpus allocated %.1f B per row beyond its slabs, want at most %d", perRow, budget)
	}
}
