package feature

import (
	"math"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/table"
)

func extractor(t *testing.T) *Extractor {
	t.Helper()
	attrs := []string{"name", "city"}
	a := table.MustNew("A", attrs)
	a.MustAppend([]string{"dave smith", "atlanta"})
	a.MustAppend([]string{"joe wilson", ""})
	b := table.MustNew("B", attrs)
	b.MustAppend([]string{"david smith", "atlanta"})
	b.MustAppend([]string{"ann brown", "chicago"})
	res, err := config.Generate(a, b, config.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewExtractor(ssjoin.NewCorpus(a, b, res))
}

func TestVectorShape(t *testing.T) {
	e := extractor(t)
	v := e.Vector(0, 0)
	if len(v) != e.Dim() || len(v) != len(e.Names()) {
		t.Fatalf("dim mismatch: %d vs %d vs %d", len(v), e.Dim(), len(e.Names()))
	}
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Errorf("feature %s = %g out of [0,1]", e.Names()[i], x)
		}
	}
}

func TestVectorDiscriminates(t *testing.T) {
	e := extractor(t)
	match := e.Vector(0, 0)    // dave smith/atlanta vs david smith/atlanta
	nonmatch := e.Vector(0, 1) // dave smith/atlanta vs ann brown/chicago
	// The full-config jaccard feature (index 2n) must be higher for the
	// match.
	n := 2
	if match[2*n] <= nonmatch[2*n] {
		t.Errorf("all_jac: match %g <= nonmatch %g", match[2*n], nonmatch[2*n])
	}
}

func TestPresenceFlagsMissing(t *testing.T) {
	e := extractor(t)
	v := e.Vector(1, 0) // A row 1 has missing city
	names := e.Names()
	for i, name := range names {
		if name == "city_present" && v[i] != 0 {
			t.Errorf("city_present = %g for missing city", v[i])
		}
		if name == "name_present" && v[i] != 1 {
			t.Errorf("name_present = %g", v[i])
		}
	}
}

// referenceVector is Vector as one Corpus.Sim per attribute and one for
// the full mask, with lengths from Corpus.LenUnder: the path the
// one-merge Vector replaced, kept as its oracle.
func referenceVector(e *Extractor, a, b int32) []float64 {
	n := len(e.cor.Res.Promising)
	full := config.Mask(1)<<uint(n) - 1
	out := make([]float64, 0, 2*n+2)
	for i := 0; i < n; i++ {
		out = append(out, e.cor.Sim(a, b, config.Mask(1)<<uint(i), simfunc.Jaccard))
	}
	for i := 0; i < n; i++ {
		m := config.Mask(1) << uint(i)
		if e.cor.LenUnder(0, a, m) > 0 && e.cor.LenUnder(1, b, m) > 0 {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	out = append(out, e.cor.Sim(a, b, full, simfunc.Jaccard))
	la, lb := e.cor.LenUnder(0, a, full), e.cor.LenUnder(1, b, full)
	if la == 0 || lb == 0 {
		out = append(out, 0)
	} else {
		out = append(out, float64(min(la, lb))/float64(max(la, lb)))
	}
	return out
}

// TestVectorMatchesSim holds Vector to referenceVector bit for bit on
// every pair of three session pools (the union of a session's per-config
// top-k lists at the default K): M2 ×0.1 under HASH1, A-G under the
// manufacturer hash and F-Z under the city hash, the benchmark
// workloads' data and rules. It also pairs each listed A row with the B
// row half the table away, so pairs with little or nothing in common
// are covered too.
func TestVectorMatchesSim(t *testing.T) {
	for _, s := range []struct {
		p    datagen.Profile
		keep string
	}{
		{datagen.Music2().Scaled(0.1), "attr_equal_artist_name"},
		{datagen.AmazonGoogle(), "attr_equal_manuf"},
		{datagen.FodorsZagats(), "attr_equal_city"},
	} {
		d := datagen.MustGenerate(s.p)
		q, err := blocker.BuildFromRules(nil, []string{s.keep}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := q.Block(d.A, d.B)
		if err != nil {
			t.Fatal(err)
		}
		res, err := config.Generate(d.A, d.B, config.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cor := ssjoin.NewCorpus(d.A, d.B, res)
		e := NewExtractor(cor)
		pairs := 0
		check := func(a, b int32) {
			got, want := e.Vector(a, b), referenceVector(e, a, b)
			if len(got) != len(want) {
				t.Fatalf("%s (%d,%d): %d features, want %d", s.p.Name, a, b, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s (%d,%d): %s = %v, want %v", s.p.Name, a, b, e.Names()[i], got[i], want[i])
				}
			}
			pairs++
		}
		for _, l := range ssjoin.JoinAll(cor, c, ssjoin.Options{Workers: 1}).Lists {
			for _, p := range l.Pairs {
				check(p.A, p.B)
				check(p.A, int32((int(p.B)+cor.NumB()/2)%cor.NumB()))
			}
		}
		t.Logf("%s: %d attributes, %d pairs", s.p.Name, len(res.Promising), pairs)
	}
}
