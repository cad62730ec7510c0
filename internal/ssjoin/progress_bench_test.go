package ssjoin

import (
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/datagen"
)

// The paired progress-overhead benchmarks: the same JoinAll workload
// with and without a Progress tracker attached. They exist for the
// module's one overhead gate (`mcperf overhead` pairs each On invocation with its
// Off twin and bounds the median ratio at 5%), so their names must keep
// the On/Off suffix convention the pairing keys on.

var progressBenchState struct {
	cor *Corpus
	c   *blocker.PairSet
}

// progressBenchCorpus builds a mid-sized corpus once per process: big
// enough that a JoinAll runs tens of milliseconds (so the sampled
// progress flushes are exercised thousands of times per iteration),
// small enough that -benchtime .5s still yields several iterations to
// average over.
func progressBenchCorpus(b *testing.B) (*Corpus, *blocker.PairSet) {
	if progressBenchState.cor == nil {
		d := datagen.MustGenerate(datagen.Profile{
			Name: "bench", RowsA: 900, RowsB: 900, Matches: 200,
			VocabSize: 400, Seed: 9, GoldKnown: true,
			Fields: []datagen.FieldSpec{
				{Name: "title", Kind: datagen.FieldPhrase, MinWords: 5, MaxWords: 10, RareWords: 0.5,
					DirtA: datagen.Dirt{Typo: 0.1, WordDrop: 0.1},
					DirtB: datagen.Dirt{Typo: 0.1, WordDrop: 0.1, ExtraWord: 0.1}},
				{Name: "city", Kind: datagen.FieldPool, PoolSize: 12, PoolVariants: 0.3, BVariantProb: 0.3},
				{Name: "age", Kind: datagen.FieldInt, Lo: 18, Hi: 80},
			},
		})
		res, err := config.Generate(d.A, d.B, config.Options{})
		if err != nil {
			b.Fatal(err)
		}
		c, err := blocker.NewAttrEquivalence("city").Block(d.A, d.B)
		if err != nil {
			b.Fatal(err)
		}
		progressBenchState.cor = NewCorpus(d.A, d.B, res)
		progressBenchState.c = c
	}
	return progressBenchState.cor, progressBenchState.c
}

func benchJoinProgress(b *testing.B, track bool) {
	cor, c := progressBenchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh tracker per join, as real callers attach them.
		opt := Options{K: 500}
		if track {
			opt.Progress = NewProgress()
		}
		out := JoinAll(cor, c, opt)
		if len(out.Lists) == 0 {
			b.Fatal("join produced no lists")
		}
	}
}

func BenchmarkJoinProgressOn(b *testing.B)  { benchJoinProgress(b, true) }
func BenchmarkJoinProgressOff(b *testing.B) { benchJoinProgress(b, false) }
