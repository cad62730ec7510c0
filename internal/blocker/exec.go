package blocker

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"matchcatcher/internal/floats"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
	"matchcatcher/internal/tokenize"
)

// Rule is a rule-based blocker defined by a keep condition: a pair survives
// blocking iff Keep holds. Build one with KeepRule (keep semantics) or
// DropRule (Magellan-style kill rules, as in the paper's Table 2). Block
// executes the rule with index-driven candidate generation: the keep
// condition is normalized to DNF and each conjunct is driven by its most
// selective indexable atom (equality > set similarity > overlap count >
// edit distance > numeric range), falling back to a nested loop only when
// a conjunct has no indexable atom. Atoms are compiled once per Block call
// so per-pair verification never re-tokenizes values.
type Rule struct {
	ID   string
	Keep Expr
}

// KeepRule returns a blocker that keeps exactly the pairs satisfying e.
func KeepRule(id string, e Expr) *Rule { return &Rule{ID: id, Keep: e} }

// DropRule returns a blocker that drops pairs satisfying e (and keeps the
// rest) — the convention of the paper's Table 2 OL/SIM/R blockers.
func DropRule(id string, e Expr) *Rule { return &Rule{ID: id, Keep: Not{e}} }

// MustParseDropRule parses src as a kill-rule expression and wraps it.
func MustParseDropRule(id, src string) *Rule { return DropRule(id, MustParse(src)) }

// MustParseKeepRule parses src as a keep expression and wraps it.
func MustParseKeepRule(id, src string) *Rule { return KeepRule(id, MustParse(src)) }

// Name implements Blocker.
func (r *Rule) Name() string { return r.ID }

// Block implements Blocker.
func (r *Rule) Block(a, b *table.Table) (*PairSet, error) {
	out := NewPairSet()
	comp := newCompiler(a, b)
	for _, conj := range DNF(r.Keep) {
		blockConjunct(comp, conj, out)
	}
	count(r.ID, out)
	return out, nil
}

// compiler caches per-column derived data (token-id sets, normalized
// strings, parsed floats) shared by every atom over the same feature.
type compiler struct {
	a, b  *table.Table
	cache map[Feature]*columnData
}

type columnData struct {
	// FeatSetSim / FeatOverlapCount: both sides tokenized into ids of one
	// dictionary of nIDs tokens, each row a distinct ascending id set.
	aIDs, bIDs   idRows
	nIDs         int
	aNorm, bNorm []string  // FeatEqual / FeatEditDist
	aNum, bNum   []float64 // FeatAbsDiff (NaN when missing)
	haveTok      bool
	haveNorm     bool
	haveNum      bool
}

func newCompiler(a, b *table.Table) *compiler {
	return &compiler{a: a, b: b, cache: map[Feature]*columnData{}}
}

// featKey strips the measure so that e.g. jac and cos atoms over the same
// attr/tokenizer/transform share token columns, and all normalized-string
// kinds (equality, edit distance, Jaro, Jaro-Winkler) share norm columns.
func featKey(f Feature) Feature {
	f.Measure = 0
	switch f.Kind {
	case FeatSetSim:
		f.Kind = FeatOverlapCount
	case FeatEditDist, FeatJaro, FeatJaroWinkler:
		f.Kind = FeatEqual
	}
	return f
}

func (c *compiler) data(f Feature) *columnData {
	k := featKey(f)
	d := c.cache[k]
	if d == nil {
		d = &columnData{}
		c.cache[k] = d
	}
	switch f.Kind {
	case FeatSetSim, FeatOverlapCount:
		if !d.haveTok {
			dict := make(map[string]int32)
			d.aIDs = idColumn(c.a, f, dict)
			d.bIDs = idColumn(c.b, f, dict)
			d.nIDs = len(dict)
			d.haveTok = true
		}
	case FeatEqual, FeatEditDist, FeatJaro, FeatJaroWinkler:
		if !d.haveNorm {
			d.aNorm = normColumn(c.a, f)
			d.bNorm = normColumn(c.b, f)
			d.haveNorm = true
		}
	case FeatAbsDiff:
		if !d.haveNum {
			d.aNum = numColumn(c.a, f)
			d.bNum = numColumn(c.b, f)
			d.haveNum = true
		}
	}
	return d
}

// compiled is an atom with a fast Holds over precomputed columns.
type compiled struct {
	at    Atom
	data  *columnData
	holds func(ra, rb int) bool
}

func (c *compiler) compile(at Atom) compiled {
	d := c.data(at.Feature)
	var holds func(ra, rb int) bool
	switch at.Feature.Kind {
	case FeatEqual:
		holds = func(ra, rb int) bool {
			x := 0.0
			if d.aNorm[ra] != "" && d.aNorm[ra] == d.bNorm[rb] {
				x = 1
			}
			return at.Op.holds(x, at.Value)
		}
	case FeatSetSim:
		m := at.Feature.Measure
		holds = func(ra, rb int) bool {
			x, y := d.aIDs.row(ra), d.bIDs.row(rb)
			return at.Op.holds(m.FromOverlap(intersectCount(x, y), len(x), len(y)), at.Value)
		}
	case FeatOverlapCount:
		holds = func(ra, rb int) bool {
			return at.Op.holds(float64(intersectCount(d.aIDs.row(ra), d.bIDs.row(rb))), at.Value)
		}
	case FeatEditDist:
		holds = func(ra, rb int) bool {
			return at.Op.holds(float64(simfunc.Levenshtein(d.aNorm[ra], d.bNorm[rb])), at.Value)
		}
	case FeatJaro:
		holds = func(ra, rb int) bool {
			return at.Op.holds(simfunc.Jaro(d.aNorm[ra], d.bNorm[rb]), at.Value)
		}
	case FeatJaroWinkler:
		holds = func(ra, rb int) bool {
			return at.Op.holds(simfunc.JaroWinkler(d.aNorm[ra], d.bNorm[rb]), at.Value)
		}
	case FeatAbsDiff:
		holds = func(ra, rb int) bool {
			x := math.Abs(d.aNum[ra] - d.bNum[rb])
			if math.IsNaN(x) {
				x = math.Inf(1)
			}
			return at.Op.holds(x, at.Value)
		}
	default:
		panic("blocker: unknown feature kind")
	}
	return compiled{at: at, data: d, holds: holds}
}

// intersectCount returns |x ∩ y| for two ascending id sets by merging
// them.
//
//mc:hotpath
func intersectCount(x, y []int32) int {
	o, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			o++
			i++
			j++
		}
	}
	return o
}

// overlapReaches reports whether two ascending id sets share at least
// need ids, merging only until the answer is certain.
//
//mc:hotpath
func overlapReaches(x, y []int32, need int) bool {
	o, i, j := 0, 0, 0
	for o < need {
		if o+min(len(x)-i, len(y)-j) < need {
			return false
		}
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			o++
			i++
			j++
		}
	}
	return true
}

// idRows holds one side's token-id sets in CSR form: row i is
// ids[off[i]:off[i+1]].
type idRows struct {
	off []int32
	ids []int32
}

func (r idRows) rows() int { return len(r.off) - 1 }

func (r idRows) row(i int) []int32 { return r.ids[r.off[i]:r.off[i+1]] }

// head is row i's first prefix(len) ids, or the whole row when prefix is
// nil.
func (r idRows) head(i int, prefix func(l int) int) []int32 {
	row := r.row(i)
	if prefix != nil {
		row = row[:prefix(len(row))]
	}
	return row
}

// addRow tokenizes s with tok straight into dict's ids, adding unseen
// tokens, and appends the distinct ids in ascending order as the next row.
func (r *idRows) addRow(dict map[string]int32, tok tokenize.Tokenizer, s string) {
	start := len(r.ids)
	tokenize.Each(tok, s, func(t string) {
		id, ok := dict[t]
		if !ok {
			id = int32(len(dict))
			dict[t] = id
		}
		r.ids = append(r.ids, id)
	})
	row := r.ids[start:]
	slices.Sort(row)
	r.ids = r.ids[:start+len(slices.Compact(row))]
	r.off = append(r.off, int32(len(r.ids)))
}

// newIDRows returns empty rows with room for n rows and maxIDs ids, so
// the ids slab is allocated once when maxIDs bounds what the rows add.
func newIDRows(n, maxIDs int) idRows {
	return idRows{off: make([]int32, 1, n+1), ids: make([]int32, 0, maxIDs)}
}

// maxTokens bounds the distinct tokens tok yields for a value of n
// bytes: a q-gram starts at each rune, and a value has at most one rune
// per byte. It is 0 for other tokenizers, whose slab grows by append (a
// bound on words is about three times their count).
func maxTokens(tok tokenize.Tokenizer, n int) int {
	if _, ok := tok.(tokenize.QGramTokenizer); ok {
		return n
	}
	return 0
}

// maxTokensOf sums maxTokens over vals.
func maxTokensOf(tok tokenize.Tokenizer, vals []string) int {
	n := 0
	for _, v := range vals {
		n += maxTokens(tok, len(v))
	}
	return n
}

// idColumn compiles feature f's tokens of every row of t into dict's ids.
// A q-gram slab is sized from the raw values' lengths: f's transforms
// keep one word of a value, which has no more runes than the value.
func idColumn(t *table.Table, f Feature, dict map[string]int32) idRows {
	maxIDs := 0
	if col := t.AttrIndex(f.Attr); col >= 0 {
		for i := 0; i < t.NumRows(); i++ {
			maxIDs += maxTokens(f.Tok, len(t.Value(i, col)))
		}
	}
	r := newIDRows(t.NumRows(), maxIDs)
	for i := 0; i < t.NumRows(); i++ {
		r.addRow(dict, f.Tok, featValue(t, i, f))
	}
	return r
}

func normColumn(t *table.Table, f Feature) []string {
	out := make([]string, t.NumRows())
	for i := range out {
		out[i] = tokenize.Normalize(featValue(t, i, f))
	}
	return out
}

// numColumn parses each value as Feature.Eval does: trimmed, NaN when
// missing or unparseable.
func numColumn(t *table.Table, f Feature) []float64 {
	out := make([]float64, t.NumRows())
	for i := range out {
		v, err := strconv.ParseFloat(strings.TrimSpace(featValue(t, i, f)), 64)
		if err != nil {
			v = math.NaN()
		}
		out[i] = v
	}
	return out
}

func featValue(t *table.Table, row int, f Feature) string {
	v, _ := t.ValueByName(row, f.Attr)
	return f.Transform.apply(v)
}

// driverRank orders atom drivability; lower is better. Returns a large
// value for atoms that cannot drive candidate generation.
func driverRank(at Atom) int {
	switch at.Feature.Kind {
	case FeatEqual:
		if (at.Op == OpEQ || at.Op == OpGE) && at.Value == 1 || at.Op == OpGT && at.Value < 1 && at.Value >= 0 || at.Op == OpNE && at.Value == 0 {
			return 0
		}
	case FeatSetSim:
		if (at.Op == OpGE || at.Op == OpGT) && at.Value > 0 && at.Feature.Measure != simfunc.Overlap {
			return 1
		}
	case FeatOverlapCount:
		if at.Op == OpGE && at.Value >= 1 || at.Op == OpGT && at.Value >= 0 {
			return 2
		}
	case FeatEditDist:
		if at.Op == OpLE || at.Op == OpLT {
			return 3
		}
	case FeatAbsDiff:
		if at.Op == OpLE || at.Op == OpLT {
			return 4
		}
	}
	return 100
}

// blockConjunct emits every pair satisfying all atoms of conj into out.
func blockConjunct(c *compiler, conj []Atom, out *PairSet) {
	if len(conj) == 0 {
		return
	}
	comps := make([]compiled, len(conj))
	for i, at := range conj {
		comps[i] = c.compile(at)
	}
	best, bestRank := 0, driverRank(conj[0])
	for i := 1; i < len(conj); i++ {
		if r := driverRank(conj[i]); r < bestRank {
			best, bestRank = i, r
		}
	}
	verify := func(ra, rb int) {
		for i := range comps {
			if !comps[i].holds(ra, rb) {
				return
			}
		}
		out.Add(ra, rb)
	}
	if bestRank >= 100 {
		// No indexable atom: nested loop. Correct on any input; intended
		// for small tables or conjuncts like "absdiff > t" alone.
		for ra := 0; ra < c.a.NumRows(); ra++ {
			for rb := 0; rb < c.b.NumRows(); rb++ {
				verify(ra, rb)
			}
		}
		return
	}
	drv := comps[best]
	at := drv.at
	switch at.Feature.Kind {
	case FeatEqual:
		// A lone equality atom keeps every pair its buckets join, so out
		// can be sized for them up front.
		var exact *PairSet
		if len(comps) == 1 {
			exact = out
		}
		driveEquality(drv, exact, verify)
	case FeatSetSim:
		t := at.Value
		if at.Op == OpGT {
			t = math.Nextafter(t, 1)
		}
		drivePrefixFilter(drv, t, verify)
	case FeatOverlapCount:
		cnt := int(math.Ceil(at.Value))
		// Exact on purpose: cnt is an integer-valued float and the rule
		// threshold must flip strictly-greater to at-least on the boundary.
		if at.Op == OpGT && floats.Equal(float64(cnt), at.Value) {
			cnt++
		}
		if cnt < 1 {
			cnt = 1
		}
		driveOverlapCount(drv, cnt, verify)
	case FeatEditDist:
		d := int(math.Floor(at.Value))
		// Exact on purpose: same integer-boundary flip as overlap counts.
		if at.Op == OpLT && floats.Equal(float64(d), at.Value) {
			d--
		}
		driveEditDistance(drv, d, verify)
	case FeatAbsDiff:
		driveNumericRange(drv, at.Value, verify)
	}
}

// driveEquality emits every pair with equal, non-empty normalized values.
// When exact is non-nil every emitted pair is kept, and exact reserves
// room for all of them before the first is emitted.
func driveEquality(drv compiled, exact *PairSet, emit func(ra, rb int)) {
	aNorm := drv.data.aNorm
	// A's keyed rows grouped by key, rows ascending within a group: one
	// sorted index instead of a map of growing buckets.
	rows := make([]int32, 0, len(aNorm))
	for ra, k := range aNorm {
		if k != "" {
			rows = append(rows, int32(ra))
		}
	}
	slices.SortFunc(rows, func(x, y int32) int {
		if c := strings.Compare(aNorm[x], aNorm[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	group := func(k string) []int32 {
		lo, _ := slices.BinarySearchFunc(rows, k, func(r int32, k string) int { return strings.Compare(aNorm[r], k) })
		hi := lo
		for hi < len(rows) && aNorm[rows[hi]] == k {
			hi++
		}
		return rows[lo:hi]
	}
	if exact != nil {
		n := 0
		for _, k := range drv.data.bNorm {
			if k != "" {
				n += len(group(k))
			}
		}
		exact.reserve(n)
	}
	for rb, k := range drv.data.bNorm {
		if k == "" {
			continue
		}
		for _, ra := range group(k) {
			emit(int(ra), rb)
		}
	}
}

// minOverlap returns the minimum overlap a set of size lx must share with
// any partner for the measure to reach threshold t (prefix filtering: the
// first common token of a qualifying pair lies within the first
// lx - minOverlap + 1 tokens).
func minOverlap(m simfunc.SetMeasure, t float64, lx int) int {
	var o float64
	switch m {
	case simfunc.Jaccard:
		o = t * float64(lx)
	case simfunc.Cosine:
		o = t * t * float64(lx)
	case simfunc.Dice:
		o = t / (2 - t) * float64(lx)
	default:
		o = 1
	}
	mo := int(math.Ceil(o - 1e-9))
	if mo < 1 {
		mo = 1
	}
	if mo > lx {
		mo = lx
	}
	return mo
}

// postings inverts id rows into CSR posting lists: the rows holding id
// t, ascending, are rows[start[t]:start[t+1]].
type postings struct {
	start []int32
	rows  []int32
}

func (p postings) list(t int32) []int32 { return p.rows[p.start[t]:p.start[t+1]] }

// headFreq counts, per id, the rows of r holding it among their first
// prefix(len(row)) ids (every id when prefix is nil).
func headFreq(r idRows, nIDs int, prefix func(l int) int) []int32 {
	freq := make([]int32, nIDs+1)
	for i := 0; i < r.rows(); i++ {
		for _, t := range r.head(i, prefix) {
			freq[t]++
		}
	}
	return freq
}

// invert builds the postings of each row's first prefix(len(row)) ids
// (every id when prefix is nil): count, then place rows last to first so
// each list comes out ascending.
func invert(r idRows, nIDs int, prefix func(l int) int) postings {
	p := postings{start: headFreq(r, nIDs, prefix)}
	for t := 1; t <= nIDs; t++ {
		p.start[t] += p.start[t-1]
	}
	// start[t] is now the end of t's list; placing walks it back to the
	// list's first slot.
	p.rows = make([]int32, p.start[nIDs])
	for i := r.rows() - 1; i >= 0; i-- {
		for _, t := range r.head(i, prefix) {
			p.start[t]--
			p.rows[p.start[t]] = int32(i)
		}
	}
	return p
}

// rankRows relabels both sides' ids by increasing document frequency
// (ties by id) and re-sorts each row, so a row's prefix holds its rarest
// tokens. Prefix filtering is sound under any global order; this one
// keeps posting lists short.
func rankRows(d *columnData) (a, b idRows) {
	df, dfB := headFreq(d.aIDs, d.nIDs, nil), headFreq(d.bIDs, d.nIDs, nil)
	for t := range df {
		df[t] += dfB[t]
	}
	order := make([]int32, d.nIDs)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if c := cmp.Compare(df[x], df[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	rank := make([]int32, d.nIDs)
	for r, t := range order {
		rank[t] = int32(r)
	}
	relabel := func(r idRows) idRows {
		out := idRows{off: r.off, ids: make([]int32, len(r.ids))}
		for k, t := range r.ids {
			out.ids[k] = rank[t]
		}
		for i := 0; i < out.rows(); i++ {
			slices.Sort(out.row(i))
		}
		return out
	}
	return relabel(d.aIDs), relabel(d.bIDs)
}

// drivePrefixFilter generates candidates for measure(f) >= t by prefix
// filtering over frequency-ranked id rows. A qualifying pair shares at
// least max(minOverlap(lx), minOverlap(ly)) tokens; a bounded merge
// checks that before emit verifies the pair exactly.
func drivePrefixFilter(drv compiled, t float64, emit func(ra, rb int)) {
	m := drv.at.Feature.Measure
	prefix := func(l int) int {
		if l == 0 {
			return 0
		}
		return l - minOverlap(m, t, l) + 1
	}
	a, b := rankRows(drv.data)
	idx := invert(a, drv.data.nIDs, prefix)
	seen := make([]int32, a.rows()) // candidate ra -> stamp rb+1 of the last probe that reached it
	for rb := 0; rb < b.rows(); rb++ {
		y := b.row(rb)
		stamp := int32(rb + 1)
		for _, tok := range y[:prefix(len(y))] {
			for _, ra := range idx.list(tok) {
				if seen[ra] == stamp {
					continue
				}
				seen[ra] = stamp
				x := a.row(int(ra))
				if overlapReaches(x, y, max(minOverlap(m, t, len(x)), minOverlap(m, t, len(y)))) {
					emit(int(ra), rb)
				}
			}
		}
	}
}

// countProbe counts how many ids each A row shares with one probing row:
// counts is dense over A, touched lists the rows with a nonzero count in
// first-touch order.
type countProbe struct {
	idx     postings
	counts  []int32
	touched []int32
}

func newCountProbe(a idRows, nIDs int) *countProbe {
	return &countProbe{idx: invert(a, nIDs, nil), counts: make([]int32, a.rows())}
}

// count clears the previous probe, counts row against the index, and
// returns the touched A rows; counts holds their shared-id counts.
func (p *countProbe) count(row []int32) []int32 {
	for _, ra := range p.touched {
		p.counts[ra] = 0
	}
	p.touched = p.touched[:0]
	for _, t := range row {
		for _, ra := range p.idx.list(t) {
			if p.counts[ra] == 0 {
				p.touched = append(p.touched, ra)
			}
			p.counts[ra]++
		}
	}
	return p.touched
}

// driveOverlapCount generates candidates sharing at least cnt tokens,
// counting shared ids through full postings of A.
func driveOverlapCount(drv compiled, cnt int, emit func(ra, rb int)) {
	d := drv.data
	p := newCountProbe(d.aIDs, d.nIDs)
	for rb := 0; rb < d.bIDs.rows(); rb++ {
		for _, ra := range p.count(d.bIDs.row(rb)) {
			if int(p.counts[ra]) >= cnt {
				emit(int(ra), rb)
			}
		}
	}
}

// driveEditDistance generates candidates within edit distance d using
// 3-gram count filtering with a length filter, falling back to a
// length-filtered scan for strings too short for the gram filter. Edit
// distance and grams count runes, so the length filter does too.
func driveEditDistance(drv compiled, d int, emit func(ra, rb int)) {
	if d < 0 {
		return
	}
	const q = 3
	gram := tokenize.QGramTokenizer{Q: q}
	aNorm, bNorm := drv.data.aNorm, drv.data.bNorm
	dict := make(map[string]int32)
	aGrams, bGrams := newIDRows(len(aNorm), maxTokensOf(gram, aNorm)), newIDRows(len(bNorm), maxTokensOf(gram, bNorm))
	for _, n := range aNorm {
		aGrams.addRow(dict, gram, n)
	}
	for _, n := range bNorm {
		bGrams.addRow(dict, gram, n)
	}
	aLen, bLen := runeLens(aNorm), runeLens(bNorm)
	lenOK := func(ra, rb int) bool {
		dl := int(aLen[ra]) - int(bLen[rb])
		return dl <= d && -dl <= d
	}
	p := newCountProbe(aGrams, len(dict))
	for rb := range bNorm {
		gb := bGrams.row(rb)
		// Each edit destroys at most q grams of b's gram set.
		need := len(gb) - q*d
		if need >= 1 {
			for _, ra := range p.count(gb) {
				if int(p.counts[ra]) >= need && lenOK(int(ra), rb) {
					emit(int(ra), rb)
				}
			}
			continue
		}
		// Too short to filter by grams: scan with the length filter only.
		for ra := range aNorm {
			if lenOK(ra, rb) {
				emit(ra, rb)
			}
		}
	}
}

func runeLens(col []string) []int32 {
	out := make([]int32, len(col))
	for i, s := range col {
		out[i] = int32(utf8.RuneCountInString(s))
	}
	return out
}

// driveNumericRange generates candidates with |x-y| <= v by sorting A's
// numeric values and range-scanning per tuple of B.
func driveNumericRange(drv compiled, v float64, emit func(ra, rb int)) {
	type num struct {
		val float64
		row int
	}
	var nums []num
	for ra, x := range drv.data.aNum {
		if !math.IsNaN(x) {
			nums = append(nums, num{x, ra})
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i].val < nums[j].val })
	for rb, y := range drv.data.bNum {
		if math.IsNaN(y) {
			continue
		}
		lo := sort.Search(len(nums), func(i int) bool { return nums[i].val >= y-v })
		for i := lo; i < len(nums) && nums[i].val <= y+v; i++ {
			emit(nums[i].row, rb)
		}
	}
}
