package config

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"matchcatcher/internal/datagen"
	"matchcatcher/internal/table"
)

// referenceGenerate is Generate's column path as it was before column
// profiles: the classifier and table.AttrStatsFor each rescan the column, AttrStatsFor once for the e-score and again for
// the average lengths. TestGenerateMatchesReference holds Generate to it.
func referenceGenerate(a, b *table.Table, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	shared := sharedAttrs(a, b)
	if len(shared) == 0 {
		return nil, fmt.Errorf("config: tables %s and %s share no attributes", a.Name(), b.Name())
	}
	r := &Result{
		Classes: map[string]AttrClass{},
		Dropped: map[string]string{},
		EScores: map[string]float64{},
		delta:   opt.Delta,
	}
	if len(opt.CuratedAttrs) > 0 {
		for _, attr := range opt.CuratedAttrs {
			if !a.HasAttr(attr) || !b.HasAttr(attr) {
				return nil, fmt.Errorf("config: curated attribute %q is not in both schemas", attr)
			}
			r.Promising = append(r.Promising, attr)
			r.Classes[attr] = referenceClassify(a, b, attr, opt.CategoricalMaxUnique)
			r.EScores[attr] = a.AttrStatsFor(attr).EScoreComponent() * b.AttrStatsFor(attr).EScoreComponent()
		}
		if len(r.Promising) > opt.MaxPromising {
			return nil, fmt.Errorf("config: %d curated attributes exceed MaxPromising %d", len(r.Promising), opt.MaxPromising)
		}
		referenceFillAvgLens(r, a, b)
		r.buildTree(opt)
		return r, nil
	}
	type cand struct {
		attr   string
		escore float64
	}
	var cands []cand
	for _, attr := range shared {
		cl := referenceClassify(a, b, attr, opt.CategoricalMaxUnique)
		r.Classes[attr] = cl
		switch cl {
		case ClassNumeric:
			r.Dropped[attr] = "numeric"
			continue
		case ClassCategorical, ClassBoolean:
			if j := valueSetJaccard(a, b, attr); j < opt.MinValueJaccard {
				r.Dropped[attr] = fmt.Sprintf("%s with dissimilar value sets (jaccard %.2f)", cl, j)
				continue
			}
		}
		e := a.AttrStatsFor(attr).EScoreComponent() * b.AttrStatsFor(attr).EScoreComponent()
		cands = append(cands, cand{attr, e})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("config: no promising attributes survive classification")
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].escore > cands[j].escore })
	if len(cands) > opt.MaxPromising {
		for _, c := range cands[opt.MaxPromising:] {
			r.Dropped[c.attr] = "trimmed: schema wider than MaxPromising"
		}
		cands = cands[:opt.MaxPromising]
	}
	keep := map[string]bool{}
	for _, c := range cands {
		keep[c.attr] = true
	}
	for _, attr := range shared {
		if keep[attr] {
			r.Promising = append(r.Promising, attr)
		}
	}
	for _, c := range cands {
		r.EScores[c.attr] = c.escore
	}
	referenceFillAvgLens(r, a, b)
	r.buildTree(opt)
	return r, nil
}

func referenceFillAvgLens(r *Result, a, b *table.Table) {
	for i, t := range []*table.Table{a, b} {
		r.avgLen[i] = make([]float64, len(r.Promising))
		for j, attr := range r.Promising {
			st := t.AttrStatsFor(attr)
			r.avgLen[i][j] = st.AvgTokenLen * st.NonMissingRatio
		}
	}
}

func referenceClassify(a, b *table.Table, attr string, maxUnique int) AttrClass {
	ca := referenceClassifyColumn(a, attr, maxUnique)
	cb := referenceClassifyColumn(b, attr, maxUnique)
	switch {
	case ca == cb:
		return ca
	case ca == ClassString || cb == ClassString:
		return ClassString
	}
	return ClassCategorical
}

// referenceClassifyColumn normalizes every value with strings.ToLower and
// parses it with strconv.ParseFloat, with no prefilter.
func referenceClassifyColumn(t *table.Table, attr string, maxUnique int) AttrClass {
	j := t.AttrIndex(attr)
	if j < 0 {
		return ClassString
	}
	nonMissing, numeric, totalTokens := 0, 0, 0
	allBool := true
	uniq := make(map[string]struct{})
	for i := 0; i < t.NumRows(); i++ {
		v := t.Value(i, j)
		if v == table.Missing {
			continue
		}
		nonMissing++
		norm := strings.ToLower(strings.TrimSpace(v))
		uniq[norm] = struct{}{}
		totalTokens += table.CountFields(norm)
		if _, err := strconv.ParseFloat(norm, 64); err == nil {
			numeric++
		}
		if !boolTokens[norm] {
			allBool = false
		}
	}
	if nonMissing == 0 {
		return ClassString
	}
	if allBool {
		return ClassBoolean
	}
	if float64(numeric) >= 0.9*float64(nonMissing) {
		return ClassNumeric
	}
	avgTokens := float64(totalTokens) / float64(nonMissing)
	if len(uniq) <= maxUnique && len(uniq) < nonMissing && avgTokens <= 3 {
		return ClassCategorical
	}
	return ClassString
}

// caseTables are hand-made columns aimed at the profile's shortcuts:
// values whose normalized form differs from the raw one (case, padding,
// İ/K that lowercase to ASCII, so "İNF" parses only once normalized and
// the num column is numeric only as normalized values),
// numeric edge forms, boolean tokens in mixed case, invalid UTF-8, and a
// categorical column that only fits maxUnique once normalized.
func caseTables(t *testing.T) (*table.Table, *table.Table) {
	attrs := []string{"name", "num", "flag", "cat", "odd"}
	a := mkTable(t, "A", attrs, [][]string{
		{"Dave SMITH", "1.5", "TRUE", "Red", "İNF"},
		{"joe  wilson", " 2 ", "no", "RED", "nan"},
		{"ANN brown", "0x1p-2", "Y", " red ", "\xff\xfe"},
		{"bob STONE", "1_000", "0", "Blue", "\u212A"},
		{"", "İnf", "", "blue", ""},
		{"carol reyes", "-0", "f", "GREEN", "n/a"},
	})
	b := mkTable(t, "B", attrs, [][]string{
		{"david smith", "-.5", "True", "green", "-Infinity"},
		{"Joseph Wilson", "1e3", "NO", "Green", "k"},
		{"anne BROWN", "NaN", "Y", "red", "İnf"},
		{"robert stone", "İNFINITY", "1", "BLUE", "ınf"},
		{"CAROL REYES", "+Inf", "F", "blue", "\xc3"},
	})
	return a, b
}

// TestGenerateMatchesReference holds Generate to referenceGenerate: the
// Result must be reflect.DeepEqual — classes, drop reasons, e-scores,
// promising set, average lengths and the config tree — on every datagen
// profile and on caseTables, under default and non-default options.
func TestGenerateMatchesReference(t *testing.T) {
	type input struct {
		name string
		a, b *table.Table
	}
	var inputs []input
	for _, p := range append(datagen.AllProfiles(), datagen.Skewed()) {
		if n := max(p.RowsA, p.RowsB); n > 1500 {
			p = p.Scaled(1500 / float64(n))
		}
		d := datagen.MustGenerate(p)
		inputs = append(inputs, input{p.Name, d.A, d.B})
	}
	ca, cb := caseTables(t)
	inputs = append(inputs, input{"case", ca, cb})
	for _, in := range inputs {
		shared := sharedAttrs(in.a, in.b)
		for _, opt := range []Options{
			{},
			{CategoricalMaxUnique: 2, MinValueJaccard: 0.9},
			{CategoricalMaxUnique: 100000, MaxPromising: 2, DisableLongAttr: true},
			{CuratedAttrs: shared[:min(len(shared), MaxAttrs)], MaxPromising: MaxAttrs},
		} {
			got, gotErr := Generate(in.a, in.b, opt)
			want, wantErr := referenceGenerate(in.a, in.b, opt)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s %+v: error %v, want %v", in.name, opt, gotErr, wantErr)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v: Result differs from the reference\ngot  %+v\nwant %+v", in.name, opt, got, want)
			}
		}
	}
}
