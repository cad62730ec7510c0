package ssjoin

import (
	"testing"

	"matchcatcher/internal/config"
	"matchcatcher/internal/datagen"
)

// BenchmarkPrepare measures a debug session's table-side preparation:
// config.Generate (Section 3) and NewCorpus on the data of three session
// benchmark workloads.
func BenchmarkPrepare(b *testing.B) {
	for _, w := range []struct {
		name string
		p    datagen.Profile
	}{
		{"M2x0.1", datagen.Music2().Scaled(0.1)},
		{"A-G", datagen.AmazonGoogle()},
		{"F-Z", datagen.FodorsZagats()},
	} {
		d := datagen.MustGenerate(w.p)
		b.Run(w.name+"/Generate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := config.Generate(d.A, d.B, config.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		res, err := config.Generate(d.A, d.B, config.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.name+"/NewCorpus", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCorpus = NewCorpus(d.A, d.B, res)
			}
		})
	}
}

// sinkCorpus guards BenchmarkPrepare against dead-code elimination.
var sinkCorpus *Corpus
