// Package feature builds the pair feature vectors the Match Verifier's
// random forest learns on: per-attribute word-level Jaccard similarities,
// presence flags, a length-difference ratio, and the full-config score.
package feature

import (
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/ssjoin"
)

// Extractor computes feature vectors for tuple pairs over a corpus.
type Extractor struct {
	cor   *ssjoin.Corpus
	names []string
}

// NewExtractor builds an extractor over the corpus's promising attributes.
func NewExtractor(cor *ssjoin.Corpus) *Extractor {
	e := &Extractor{cor: cor}
	for _, attr := range cor.Res.Promising {
		e.names = append(e.names, attr+"_jac")
	}
	for _, attr := range cor.Res.Promising {
		e.names = append(e.names, attr+"_present")
	}
	e.names = append(e.names, "all_jac", "len_ratio")
	return e
}

// Names returns the feature names, aligned with Vector's output.
func (e *Extractor) Names() []string { return e.names }

// Dim returns the vector dimensionality.
func (e *Extractor) Dim() int { return len(e.names) }

// Vector computes the feature vector for the pair (A-row a, B-row b).
// One merge of the two records (Corpus.Overlaps) gives every
// per-attribute overlap and the full-mask one; each feature equals what
// Corpus.Sim and Corpus.LenUnder give under its mask.
func (e *Extractor) Vector(a, b int32) []float64 {
	n := len(e.cor.Res.Promising)
	out := make([]float64, 2*n+2)
	var o [config.MaxAttrs]int32
	full := e.cor.Overlaps(a, b, &o)
	lensA, lensB := e.cor.AttrLens(0, a), e.cor.AttrLens(1, b)
	la, lb := 0, 0
	for i := 0; i < n; i++ {
		lx, ly := int(lensA[i]), int(lensB[i])
		la += lx
		lb += ly
		if lx > 0 && ly > 0 {
			out[i] = simfunc.Jaccard.FromOverlap(int(o[i]), lx, ly)
			out[n+i] = 1
		}
	}
	if la > 0 && lb > 0 {
		out[2*n] = simfunc.Jaccard.FromOverlap(full, la, lb)
		out[2*n+1] = float64(min(la, lb)) / float64(max(la, lb))
	}
	return out
}
