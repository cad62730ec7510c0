package ssjoin

import (
	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/telemetry"
)

// runOpts parameterizes one single-config join run.
type runOpts struct {
	k int
	m simfunc.SetMeasure
	c *blocker.PairSet // blocker output: pairs to exclude (may be nil)
	// seeds is a parent config's finished top-k list, absorbed (rescored
	// under this config, C pairs dropped) before the index is built. The
	// join is exact (see runJoin), so whether a list is given changes
	// only the work done, never the result.
	seeds []ScoredPair
	// done aborts the run once closed: the index and row loops read it
	// every progressStride records, rows or posting entries. Nil never
	// fires.
	done <-chan struct{}
	// stats collects this run's event counts. Always non-nil in real
	// runs; runJoin tolerates nil.
	stats *runStats
	// span is this config join's trace span; runJoin opens tokenize /
	// index / probe / topk child spans under it. Nil disables tracing
	// (all the sub-span calls degrade to no-ops).
	span *telemetry.TraceSpan
	// prog is the run's live progress tracker; nil disables sampling
	// entirely (the row loop's only residue is a nil check per stride).
	// The tracker is observe-only — it never feeds back into the join,
	// so attaching it cannot change any output bit.
	prog *Progress
}

// runJoin executes one config's top-k join with the row-local
// prefix-filter kernel (rowProbe.join; DESIGN.md "Row-local join
// kernel"): seeds first, then B's prefixes indexed once, then A's rows in
// id order, each counting its candidates in a |B|-sized row array and
// scoring at its end the candidates whose bound (counted instances plus
// the lagging record's unprobed suffix, see rowProbe.lagging) reaches
// the k-th score. Pairs present in the blocker output C are tracked but
// never emitted (Definition 2.2 searches D = A×B − C); the strict pair
// filters run before that check, so a C pair they kill is counted as a
// kill, not a suppression.
//
// All pruning is strict (a bound must fall below the k-th retained score
// before anything is skipped), so the returned list is the exact top-k of
// D under the total order (score desc, idA asc, idB asc) — a pure
// function of (corpus, mask, k, C, measure). Seeds change only how much
// work the join does, never its output; that invariance is what lets
// JoinAll run configs concurrently, seed a child only when its parent
// has already finished, and still return the serial bytes.
func runJoin(cor *Corpus, mask config.Mask, opt runOpts) TopKList {
	if opt.stats == nil {
		opt.stats = &runStats{}
	}
	p := getRowProbe()
	defer putRowProbe(p)
	return p.join(cor, mask, opt)
}
