package ssjoin

import (
	"strconv"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/telemetry"
)

// Provenance derivation for the join stage. The join's row loop touches
// tens of millions of pairs, so it records nothing; instead, once a
// config's join has finished, the watched pairs' facts are recomputed
// directly — suppression by C, the exact similarity score under the
// config (a single token-list merge per watched pair), and the rank in
// the final top-k list. This is exact (scoring is deterministic) and
// costs O(|watch| x (tokens + k)) per config, entirely off the hot path.

// recordSuppressionProvenance records, once per executor run, which
// watched pairs are in the blocker output C and therefore excluded from
// D = A x B − C (Definition 2.2): the join will never emit them.
func recordSuppressionProvenance(prov *telemetry.Provenance, c *blocker.PairSet) {
	if !prov.Active() {
		return
	}
	for _, w := range prov.WatchedPairs() {
		if c.Contains(w[0], w[1]) {
			prov.Record(w[0], w[1], "ssjoin", "excluded",
				telemetry.L("reason", "pair is in blocker output C; joins search D = AxB - C"))
		}
	}
}

// recordJoinProvenance records each watched pair's exact score and rank
// under one finished config join.
func recordJoinProvenance(prov *telemetry.Provenance, cor *Corpus, mask config.Mask, c *blocker.PairSet, list TopKList, m simfunc.SetMeasure) {
	if !prov.Active() {
		return
	}
	cfg := cor.Res.String(mask)
	for _, w := range prov.WatchedPairs() {
		a, b := w[0], w[1]
		if a < 0 || a >= cor.NumA() || b < 0 || b >= cor.NumB() {
			prov.Record(a, b, "ssjoin", "out_of_range", telemetry.L("config", cfg))
			continue
		}
		if c.Contains(a, b) {
			continue // recorded once by recordSuppressionProvenance
		}
		score := cor.Sim(int32(a), int32(b), mask, m)
		rank := 0
		for i, p := range list.Pairs {
			if int(p.A) == a && int(p.B) == b {
				rank = i + 1
				break
			}
		}
		attrs := []telemetry.Label{
			telemetry.L("config", cfg),
			telemetry.L("score", strconv.FormatFloat(score, 'f', 4, 64)),
		}
		if rank > 0 {
			attrs = append(attrs,
				telemetry.L("rank", strconv.Itoa(rank)),
				telemetry.L("of", strconv.Itoa(len(list.Pairs))))
			prov.Record(a, b, "ssjoin", "ranked", attrs...)
		} else {
			if n := len(list.Pairs); n > 0 {
				attrs = append(attrs, telemetry.L("kth_score",
					strconv.FormatFloat(list.Pairs[n-1].Score, 'f', 4, 64)))
			}
			prov.Record(a, b, "ssjoin", "below_topk", attrs...)
		}
	}
}
