package datagen

import (
	"fmt"
	"math/rand"
	"strconv"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/table"
)

// FieldKind selects how a field's clean value is generated.
type FieldKind int

// The supported field kinds.
const (
	// FieldPhrase is MinWords..MaxWords Zipf-sampled words (titles,
	// descriptions, author lists).
	FieldPhrase FieldKind = iota
	// FieldPool draws from a categorical pool (brand, city, venue). Table
	// B renders the pool value's variant form with probability
	// BVariantProb, modeling systematic cross-table variations such as
	// "new york" vs "ny".
	FieldPool
	// FieldInt is a uniform integer in [Lo, Hi].
	FieldInt
	// FieldFloat is a uniform float in [Lo, Hi] with two decimals.
	FieldFloat
	// FieldTag is a rare identifying token (model numbers): a uniform
	// vocabulary word plus a numeric suffix.
	FieldTag
)

// FieldSpec declares one attribute of a dataset profile.
type FieldSpec struct {
	Name         string
	Kind         FieldKind
	MinWords     int     // FieldPhrase
	MaxWords     int     // FieldPhrase
	RareWords    float64 // FieldPhrase: fraction of uniformly-drawn (rare) words
	PoolSize     int     // FieldPool
	PoolVariants float64 // FieldPool: fraction of pool values with variant forms
	PoolMinWords int     // FieldPool: words per pool value (default 1)
	PoolMaxWords int     // FieldPool
	BVariantProb float64 // FieldPool: probability B renders the variant form
	// Long-tail knob (FieldPhrase): LongTailPct of entities get
	// LongTailWords extra words, producing a few token-heavy "monster"
	// records whose token lists dwarf the rest (the Skewed profile);
	// zero disables it.
	LongTailPct   float64
	LongTailWords int
	Lo, Hi        float64 // FieldInt / FieldFloat
	DirtA         Dirt    // error model for table A renderings
	DirtB         Dirt    // error model for table B renderings
}

// Profile declares a synthetic dataset: sizes, schema, and dirt. The
// standard profiles replicating the paper's Table 1 are in profiles.go.
type Profile struct {
	Name      string
	RowsA     int
	RowsB     int
	Matches   int // number of entities present in both tables
	VocabSize int
	Seed      int64
	Fields    []FieldSpec
	// GoldKnown is false for the Papers dataset, whose full gold set the
	// paper did not have either; the generator still records gold so the
	// synthetic user can label.
	GoldKnown bool
}

// Attrs returns the schema of the profile.
func (p Profile) Attrs() []string {
	out := make([]string, len(p.Fields))
	for i, f := range p.Fields {
		out[i] = f.Name
	}
	return out
}

// Dataset is a generated table pair with its gold matches.
type Dataset struct {
	Profile Profile
	A, B    *table.Table
	// Gold holds the true matches as (A-row, B-row) pairs.
	Gold *blocker.PairSet
}

// GoldCount returns |M|, the number of true matches.
func (d *Dataset) GoldCount() int { return d.Gold.Len() }

// Recall returns |M ∩ C| / |M| for a candidate set C (Definition 2.1).
func (d *Dataset) Recall(c *blocker.PairSet) float64 {
	if d.Gold.Len() == 0 {
		return 0
	}
	kept := 0
	d.Gold.ForEach(func(a, b int) {
		if c.Contains(a, b) {
			kept++
		}
	})
	return float64(kept) / float64(d.Gold.Len())
}

// KilledMatches returns the gold matches not in C — the set M ∩ D the
// debugger hunts for — sorted for determinism.
func (d *Dataset) KilledMatches(c *blocker.PairSet) []blocker.Pair {
	var out []blocker.Pair
	for _, p := range d.Gold.SortedPairs() {
		if !c.Contains(p.A, p.B) {
			out = append(out, p)
		}
	}
	return out
}

// cleanField holds one generated clean field: either a literal string or a
// pool index to be rendered per side.
type cleanField struct {
	s    string
	pool int // -1 when s is authoritative
}

// Generate builds the dataset for a profile. Generation is fully
// deterministic in Profile.Seed.
func Generate(p Profile) (*Dataset, error) {
	if p.Matches > p.RowsA || p.Matches > p.RowsB {
		return nil, fmt.Errorf("datagen %s: matches (%d) exceed table size (%d, %d)", p.Name, p.Matches, p.RowsA, p.RowsB)
	}
	if len(p.Fields) == 0 {
		return nil, fmt.Errorf("datagen %s: profile has no fields", p.Name)
	}
	if p.VocabSize <= 0 {
		p.VocabSize = 1500
	}
	rng := rand.New(rand.NewSource(p.Seed))
	vocab := NewVocab(rng, p.VocabSize, 1.3)
	pools := make([]*Pool, len(p.Fields))
	for i, f := range p.Fields {
		if f.Kind == FieldPool {
			size := f.PoolSize
			if size <= 0 {
				size = 20
			}
			pools[i] = NewPhrasePool(rng, vocab, size, f.PoolVariants, f.PoolMinWords, f.PoolMaxWords)
		}
	}

	numEntities := p.RowsA + p.RowsB - p.Matches
	entities := make([][]cleanField, numEntities)
	for e := range entities {
		ent := make([]cleanField, len(p.Fields))
		for i, f := range p.Fields {
			switch f.Kind {
			case FieldPhrase:
				k := f.MinWords
				if f.MaxWords > f.MinWords {
					k += rng.Intn(f.MaxWords - f.MinWords + 1)
				}
				// The guard keeps the rng draw sequence — and so every
				// existing profile's bytes — unchanged when the knob is off.
				if f.LongTailPct > 0 && rng.Float64() < f.LongTailPct {
					k += f.LongTailWords
				}
				ent[i] = cleanField{s: vocab.MixedPhrase(k, f.RareWords), pool: -1}
			case FieldPool:
				ent[i] = cleanField{pool: pools[i].Pick()}
			case FieldInt:
				ent[i] = cleanField{s: strconv.Itoa(int(f.Lo) + rng.Intn(int(f.Hi-f.Lo)+1)), pool: -1}
			case FieldFloat:
				v := f.Lo + rng.Float64()*(f.Hi-f.Lo)
				ent[i] = cleanField{s: strconv.FormatFloat(v, 'f', 2, 64), pool: -1}
			case FieldTag:
				ent[i] = cleanField{s: fmt.Sprintf("%s%03d", vocab.UniformWord(), rng.Intn(1000)), pool: -1}
			default:
				return nil, fmt.Errorf("datagen %s: field %s has unknown kind %d", p.Name, f.Name, f.Kind)
			}
		}
		entities[e] = ent
	}

	render := func(ent []cleanField, sideB bool) []string {
		row := make([]string, len(p.Fields))
		for i, f := range p.Fields {
			var clean string
			if ent[i].pool >= 0 {
				if sideB && rng.Float64() < f.BVariantProb {
					clean = pools[i].Variant(ent[i].pool)
				} else {
					clean = pools[i].Value(ent[i].pool)
				}
			} else {
				clean = ent[i].s
			}
			d := f.DirtA
			if sideB {
				d = f.DirtB
			}
			row[i] = d.apply(rng, vocab, clean)
		}
		return row
	}

	// Entities [0, Matches) appear in both tables; [Matches, RowsA) only
	// in A; [RowsA, numEntities) only in B. Row orders are shuffled so
	// row index carries no signal.
	aEnt := rng.Perm(p.RowsA)
	bEnt := make([]int, p.RowsB)
	for i := range bEnt {
		if i < p.Matches {
			bEnt[i] = i
		} else {
			bEnt[i] = p.RowsA + (i - p.Matches)
		}
	}
	rng.Shuffle(len(bEnt), func(i, j int) { bEnt[i], bEnt[j] = bEnt[j], bEnt[i] })

	a, err := table.New(p.Name+"-A", p.Attrs())
	if err != nil {
		return nil, err
	}
	b, err := table.New(p.Name+"-B", p.Attrs())
	if err != nil {
		return nil, err
	}
	aRowOf := make(map[int]int, p.RowsA)
	for row, e := range aEnt {
		if err := a.Append(render(entities[e], false)); err != nil {
			return nil, err
		}
		aRowOf[e] = row
	}
	gold := blocker.NewPairSet()
	for row, e := range bEnt {
		if err := b.Append(render(entities[e], true)); err != nil {
			return nil, err
		}
		if e < p.Matches {
			gold.Add(aRowOf[e], row)
		}
	}
	return &Dataset{Profile: p, A: a, B: b, Gold: gold}, nil
}

// MustGenerate is Generate panicking on error, for tests and benchmarks
// over the built-in profiles.
func MustGenerate(p Profile) *Dataset {
	d, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return d
}
