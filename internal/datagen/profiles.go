package datagen

// The seven standard profiles replicate the shape of the paper's Table 1
// datasets. The two largest (Music2, Papers) are scaled down from the
// paper's 500-600K tuples per table to sizes a single-core pure-Go run can
// sweep repeatedly; scale factors are recorded here and in EXPERIMENTS.md.
// Attribute names match the blocker expressions of Table 2.

// AmazonGoogle replicates A-G: software products, 1363 x 3226 tuples,
// 1300 matches, 5 attributes, asymmetric value lengths (long Amazon
// descriptions vs short Google ones).
func AmazonGoogle() Profile {
	return Profile{
		Name: "A-G", RowsA: 1363, RowsB: 3226, Matches: 1300,
		VocabSize: 1200, Seed: 101, GoldKnown: true,
		Fields: []FieldSpec{
			{Name: "title", Kind: FieldPhrase, MinWords: 4, MaxWords: 9, RareWords: 0.7,
				DirtA: Dirt{Typo: 0.25, WordDrop: 0.35, WordSwap: 0.10, ExtraWord: 0.15, Passes: 2},
				DirtB: Dirt{Typo: 0.25, WordDrop: 0.35, Abbrev: 0.15, Passes: 2}},
			{Name: "description", Kind: FieldPhrase, MinWords: 22, MaxWords: 34, RareWords: 0.3,
				DirtA: Dirt{Typo: 0.20, WordDrop: 0.30, ExtraWord: 0.20},
				DirtB: Dirt{Truncate: 5, Typo: 0.20, WordDrop: 0.30}},
			{Name: "manuf", Kind: FieldPool, PoolSize: 200, PoolVariants: 0.8, BVariantProb: 0.7,
				DirtA: Dirt{Missing: 0.30},
				DirtB: Dirt{Missing: 0.60, Typo: 0.20}},
			{Name: "price", Kind: FieldFloat, Lo: 5, Hi: 500,
				DirtA: Dirt{NumJitter: 0.10},
				DirtB: Dirt{NumJitter: 0.30, Missing: 0.10}},
			{Name: "category", Kind: FieldPool, PoolSize: 12, PoolVariants: 0.2, BVariantProb: 0.25,
				DirtA: Dirt{Missing: 0.05},
				DirtB: Dirt{Missing: 0.15}},
		},
	}
}

// WalmartAmazon replicates W-A: electronic products, 2554 x 22074 tuples,
// 1154 matches, 7 attributes; the Amazon side carries long descriptions.
func WalmartAmazon() Profile {
	return Profile{
		Name: "W-A", RowsA: 2554, RowsB: 22074, Matches: 1154,
		VocabSize: 5000, Seed: 102, GoldKnown: true,
		Fields: []FieldSpec{
			{Name: "title", Kind: FieldPhrase, MinWords: 5, MaxWords: 10, RareWords: 0.7,
				DirtA: Dirt{Typo: 0.22, WordDrop: 0.32, WordSwap: 0.10, Passes: 2},
				DirtB: Dirt{Typo: 0.22, WordDrop: 0.32, ExtraWord: 0.22, Passes: 2}},
			{Name: "brand", Kind: FieldPool, PoolSize: 80, PoolVariants: 0.15, BVariantProb: 0.15,
				DirtA: Dirt{Missing: 0.03},
				DirtB: Dirt{Missing: 0.08, Typo: 0.03}},
			{Name: "modelno", Kind: FieldTag,
				DirtA: Dirt{Missing: 0.20, Typo: 0.15},
				DirtB: Dirt{Missing: 0.35, Typo: 0.15}},
			{Name: "price", Kind: FieldFloat, Lo: 5, Hi: 900,
				DirtA: Dirt{NumJitter: 0.05},
				DirtB: Dirt{NumJitter: 0.12, Missing: 0.06}},
			{Name: "category", Kind: FieldPool, PoolSize: 15, PoolVariants: 0.2, BVariantProb: 0.2,
				DirtA: Dirt{Missing: 0.05}, DirtB: Dirt{Missing: 0.10}},
			{Name: "shortdescr", Kind: FieldPhrase, MinWords: 6, MaxWords: 12, RareWords: 0.5,
				DirtA: Dirt{Truncate: 8, Typo: 0.2, WordDrop: 0.3},
				DirtB: Dirt{Typo: 0.2, WordDrop: 0.3, ExtraWord: 0.2}},
			{Name: "longdescr", Kind: FieldPhrase, MinWords: 18, MaxWords: 30, RareWords: 0.5,
				DirtA: Dirt{Truncate: 6, Typo: 0.2, WordDrop: 0.3, Missing: 0.25},
				DirtB: Dirt{Typo: 0.2, WordDrop: 0.3, ExtraWord: 0.25}},
		},
	}
}

// ACMDBLP replicates A-D: bibliographic records, 2294 x 2616 tuples, 2224
// matches, 5 attributes; values are clean relative to the product data, so
// blockers reach high recall (the paper's A-D rows have M_E at 96-100%).
func ACMDBLP() Profile {
	return Profile{
		Name: "A-D", RowsA: 2294, RowsB: 2616, Matches: 2224,
		VocabSize: 2000, Seed: 103, GoldKnown: true,
		Fields: []FieldSpec{
			{Name: "title", Kind: FieldPhrase, MinWords: 6, MaxWords: 11, RareWords: 0.6,
				DirtA: Dirt{Typo: 0.06, WordDrop: 0.06},
				DirtB: Dirt{Typo: 0.06, WordDrop: 0.08, ExtraWord: 0.08}},
			{Name: "authors", Kind: FieldPhrase, MinWords: 3, MaxWords: 7, RareWords: 0.6,
				DirtA: Dirt{Typo: 0.08, WordDrop: 0.10, WordSwap: 0.20},
				DirtB: Dirt{Typo: 0.08, WordDrop: 0.15, Abbrev: 0.25}},
			{Name: "venue", Kind: FieldPool, PoolSize: 25, PoolVariants: 0.45, BVariantProb: 0.45,
				DirtA: Dirt{}, DirtB: Dirt{Missing: 0.05}},
			{Name: "year", Kind: FieldInt, Lo: 1980, Hi: 2005,
				DirtA: Dirt{}, DirtB: Dirt{Missing: 0.03}},
			{Name: "pages", Kind: FieldTag,
				DirtA: Dirt{Missing: 0.15}, DirtB: Dirt{Missing: 0.30, Typo: 0.10}},
		},
	}
}

// FodorsZagats replicates F-Z: restaurants, 533 x 331 tuples, 112 matches,
// 7 attributes; small and relatively clean, so most blockers retain nearly
// all matches in E.
func FodorsZagats() Profile {
	return Profile{
		Name: "F-Z", RowsA: 533, RowsB: 331, Matches: 112,
		VocabSize: 800, Seed: 104, GoldKnown: true,
		Fields: []FieldSpec{
			{Name: "name", Kind: FieldPhrase, MinWords: 2, MaxWords: 4, RareWords: 0.6,
				DirtA: Dirt{Typo: 0.18, WordDrop: 0.18, Abbrev: 0.12},
				DirtB: Dirt{Typo: 0.18, WordDrop: 0.12, ExtraWord: 0.18, Abbrev: 0.12}},
			{Name: "addr", Kind: FieldPhrase, MinWords: 3, MaxWords: 5, RareWords: 0.5,
				DirtA: Dirt{Typo: 0.22, Abbrev: 0.30, WordDrop: 0.20},
				DirtB: Dirt{Typo: 0.22, WordDrop: 0.25, Abbrev: 0.30}},
			{Name: "city", Kind: FieldPool, PoolSize: 30, PoolVariants: 0.50, BVariantProb: 0.45,
				DirtA: Dirt{}, DirtB: Dirt{Typo: 0.06}},
			{Name: "phone", Kind: FieldTag,
				DirtA: Dirt{Typo: 0.10}, DirtB: Dirt{Typo: 0.10, Missing: 0.10}},
			{Name: "type", Kind: FieldPool, PoolSize: 14, PoolVariants: 0.50, BVariantProb: 0.50,
				DirtA: Dirt{Missing: 0.05}, DirtB: Dirt{Missing: 0.10}},
			{Name: "class", Kind: FieldInt, Lo: 1, Hi: 5,
				DirtA: Dirt{}, DirtB: Dirt{}},
			{Name: "notes", Kind: FieldPhrase, MinWords: 4, MaxWords: 8,
				DirtA: Dirt{Missing: 0.30, Typo: 0.2}, DirtB: Dirt{Missing: 0.40, Typo: 0.2}},
		},
	}
}

// musicProfile parameterizes Music1/Music2: short song records with heavy
// artist/release repetition.
func musicProfile(name string, rows, matches int, seed int64) Profile {
	return Profile{
		Name: name, RowsA: rows, RowsB: rows, Matches: matches,
		VocabSize: 4000, Seed: seed, GoldKnown: true,
		Fields: []FieldSpec{
			{Name: "title", Kind: FieldPhrase, MinWords: 2, MaxWords: 5, RareWords: 0.6,
				DirtA: Dirt{Typo: 0.06, WordDrop: 0.05},
				DirtB: Dirt{Typo: 0.06, WordDrop: 0.06, ExtraWord: 0.05}},
			// Artist names are 1-3 words; the single-word ones are what
			// makes overlap>=2 blocking kill matches that exact equality
			// keeps (the paper's M1 OL row kills 4x more than HASH).
			{Name: "artist_name", Kind: FieldPool, PoolSize: 1500, PoolVariants: 0.08,
				PoolMinWords: 1, PoolMaxWords: 3, BVariantProb: 0.3,
				DirtA: Dirt{Typo: 0.015},
				DirtB: Dirt{Typo: 0.015, Missing: 0.02}},
			{Name: "release", Kind: FieldPool, PoolSize: 2500, PoolVariants: 0.20,
				PoolMinWords: 1, PoolMaxWords: 3, BVariantProb: 0.2,
				DirtA: Dirt{Missing: 0.10},
				DirtB: Dirt{Missing: 0.15, Typo: 0.06}},
			{Name: "year", Kind: FieldInt, Lo: 1960, Hi: 2015,
				DirtA: Dirt{Missing: 0.02},
				DirtB: Dirt{Missing: 0.03}},
			{Name: "duration", Kind: FieldInt, Lo: 90, Hi: 600,
				DirtA: Dirt{NumJitter: 0.02}, DirtB: Dirt{NumJitter: 0.02}},
			{Name: "genre", Kind: FieldPool, PoolSize: 18, PoolVariants: 0.3, BVariantProb: 0.3,
				DirtA: Dirt{Missing: 0.10}, DirtB: Dirt{Missing: 0.15}},
			{Name: "label", Kind: FieldPool, PoolSize: 120, PoolVariants: 0.2, BVariantProb: 0.2,
				DirtA: Dirt{Missing: 0.20}, DirtB: Dirt{Missing: 0.25}},
			{Name: "track", Kind: FieldInt, Lo: 1, Hi: 20,
				DirtA: Dirt{}, DirtB: Dirt{}},
		},
	}
}

// Music1 replicates the shape of Music1 at 1/5 the paper's row count
// (20K x 20K vs 100K x 100K; matches scaled with it).
func Music1() Profile { return musicProfile("M1", 20000, 600, 105) }

// Music2 replicates the shape of Music2 at 1/10 the paper's row count
// (50K x 50K vs 500K x 500K; matches scaled with it) so that the Figure 9
// size sweeps stay tractable on a single core.
func Music2() Profile { return musicProfile("M2", 50000, 7400, 106) }

// Papers replicates the Papers dataset's shape at roughly 1/11 the paper's
// size (456K x 628K -> 40K x 55K). As in the paper, the full gold set is
// treated as unknown (GoldKnown=false); the generator still records gold
// so the synthetic user can label pairs.
func Papers() Profile {
	return Profile{
		Name: "Papers", RowsA: 40000, RowsB: 55000, Matches: 7000,
		VocabSize: 6000, Seed: 107, GoldKnown: false,
		Fields: []FieldSpec{
			// Two dirt passes: the crowdsource-learned blockers of §6.2
			// still kill a visible population of matches only when the
			// bibliographic text is messy enough to slip under their
			// sample-tuned thresholds.
			{Name: "title", Kind: FieldPhrase, MinWords: 5, MaxWords: 10, RareWords: 0.6,
				DirtA: Dirt{Typo: 0.12, WordDrop: 0.15, Passes: 2},
				DirtB: Dirt{Typo: 0.12, WordDrop: 0.15, ExtraWord: 0.12, Passes: 2}},
			{Name: "authors", Kind: FieldPhrase, MinWords: 3, MaxWords: 8, RareWords: 0.6,
				DirtA: Dirt{Typo: 0.10, WordSwap: 0.20, Abbrev: 0.20, WordDrop: 0.10, Passes: 2},
				DirtB: Dirt{Typo: 0.10, WordDrop: 0.20, Abbrev: 0.20, Passes: 2}},
			{Name: "venue", Kind: FieldPool, PoolSize: 60, PoolVariants: 0.40, BVariantProb: 0.40,
				DirtA: Dirt{Missing: 0.05}, DirtB: Dirt{Missing: 0.10}},
			{Name: "year", Kind: FieldInt, Lo: 1975, Hi: 2017,
				DirtA: Dirt{Missing: 0.05}, DirtB: Dirt{Missing: 0.12}},
			{Name: "keywords", Kind: FieldPhrase, MinWords: 3, MaxWords: 6,
				DirtA: Dirt{Missing: 0.25, WordDrop: 0.2}, DirtB: Dirt{Missing: 0.35, WordDrop: 0.2}},
			{Name: "pages", Kind: FieldTag,
				DirtA: Dirt{Missing: 0.20}, DirtB: Dirt{Missing: 0.35}},
			{Name: "publisher", Kind: FieldPool, PoolSize: 25, PoolVariants: 0.3, BVariantProb: 0.3,
				DirtA: Dirt{Missing: 0.15}, DirtB: Dirt{Missing: 0.25}},
		},
	}
}

// Skewed is not a Table-1 profile: a long-tail shape for the
// session-preparation reference tests (config.Generate, ssjoin.NewCorpus).
// A handful of entities carry monster titles of ~3000 words vs the usual
// 3-7, on asymmetric tables (2000 × 400 rows), so the slab builds meet
// records far larger than any Table-1 profile produces.
func Skewed() Profile {
	return Profile{
		// Seed 151 puts every monster on the A side.
		Name: "SKEW", RowsA: 2000, RowsB: 400, Matches: 100,
		VocabSize: 4000, Seed: 151, GoldKnown: true,
		Fields: []FieldSpec{
			{Name: "title", Kind: FieldPhrase, MinWords: 3, MaxWords: 7, RareWords: 0.5,
				LongTailPct: 0.008, LongTailWords: 3000,
				DirtA: Dirt{Typo: 0.10, WordDrop: 0.10},
				DirtB: Dirt{Typo: 0.10, WordDrop: 0.10, ExtraWord: 0.10}},
			{Name: "city", Kind: FieldPool, PoolSize: 25, PoolVariants: 0.3, BVariantProb: 0.3,
				DirtA: Dirt{}, DirtB: Dirt{Missing: 0.05}},
			{Name: "year", Kind: FieldInt, Lo: 1990, Hi: 2020,
				DirtA: Dirt{}, DirtB: Dirt{Missing: 0.03}},
		},
	}
}

// AllProfiles returns the seven Table-1 profiles in the paper's order.
func AllProfiles() []Profile {
	return []Profile{
		AmazonGoogle(), WalmartAmazon(), ACMDBLP(), FodorsZagats(),
		Music1(), Music2(), Papers(),
	}
}

// Scaled returns a copy of p with row and match counts multiplied by
// frac (at least 1 row/match kept), used by the Figure 9 scaling sweeps.
func (p Profile) Scaled(frac float64) Profile {
	s := p
	s.RowsA = scaleInt(p.RowsA, frac)
	s.RowsB = scaleInt(p.RowsB, frac)
	s.Matches = scaleInt(p.Matches, frac)
	if s.Matches > s.RowsA {
		s.Matches = s.RowsA
	}
	if s.Matches > s.RowsB {
		s.Matches = s.RowsB
	}
	return s
}

func scaleInt(n int, frac float64) int {
	v := int(float64(n) * frac)
	if v < 1 {
		v = 1
	}
	return v
}
