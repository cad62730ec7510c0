package main

// metricDef is one reported metric. BENCHMARK.json at the repository root
// carries the same list (a test keeps the two equal).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
}

// endToEnd are the costs a user of the debugger sees that the benchmark
// gates, measured untraced. Every workload reports every one of them.
//
// The bounds are fixed in advance: 10% for times and peak RSS, 5% for
// allocation. A metric whose spread across the seeds of a round exceeded
// its bound even in the longest run the time budget allows was demoted to
// perLayer rather than given a wider bound; that took every wait, the
// throughput and peak RSS (README.md has the spreads). setup_s is the one
// exception: set-up time must carry the largest bound, and only its median
// between rounds is judged.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_session", "MB", "lower", 0.05},
}

// perLayer are the traced run's numbers, ungated. The first five are the
// demoted end-to-end metrics, which every run still prints. The iteration
// wait is each session's mean wait per round, and its p50 the median over
// sessions: rounds that train a forest and rounds that do not differ a
// hundredfold, so the median of all rounds jumps between the two humps
// from seed to seed. The rest are one or more per module; README.md lists
// the metric each should move and on which workload. Tail percentiles and
// the failure ratio are printed per run but are not here: tails lack ten
// samples beyond them on the long-session workloads, and failures are the
// result line's own count.
var perLayer = []metricDef{
	{name: "first_batch_s.p50", unit: "s", better: "lower"},
	{name: "iteration_ms.p50", unit: "ms", better: "lower"},
	{name: "session_s.p50", unit: "s", better: "lower"},
	{name: "sessions_per_s", unit: "1/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "datagen.generate_s", unit: "s", better: "lower"},
	{name: "table.read_csv_ms", unit: "ms", better: "lower"},
	{name: "blocker.block_ms", unit: "ms", better: "lower"},
	{name: "blocker.candidates", unit: "count", better: "lower"},
	{name: "config.generate_ms", unit: "ms", better: "lower"},
	{name: "config.configs", unit: "count", better: "lower"},
	{name: "ssjoin.corpus_ms", unit: "ms", better: "lower"},
	{name: "core.new_self_ms", unit: "ms", better: "lower"},
	{name: "ssjoin.joinall_s", unit: "s", better: "lower"},
	{name: "ssjoin.parallelism", unit: "ratio", better: "higher"},
	{name: "ssjoin.config_ms.p50", unit: "ms", better: "lower"},
	{name: "ssjoin.config_ms.max", unit: "ms", better: "lower"},
	{name: "ssjoin.tokenize_ms", unit: "ms", better: "lower"},
	{name: "ssjoin.index_ms", unit: "ms", better: "lower"},
	{name: "ssjoin.probe_ms", unit: "ms", better: "lower"},
	{name: "ssjoin.topk_ms", unit: "ms", better: "lower"},
	{name: "ssjoin.prefix_events", unit: "count", better: "lower"},
	{name: "ssjoin.scratch_scores", unit: "count", better: "lower"},
	{name: "ssjoin.reused_scores", unit: "count", better: "higher"},
	{name: "ssjoin.suppressed_pairs", unit: "count", better: "lower"},
	{name: "ssjoin.deferred_pairs", unit: "count", better: "lower"},
	{name: "ssjoin.flushed_pairs", unit: "count", better: "lower"},
	{name: "ssjoin.prune_kills.push_cap", unit: "count", better: "higher"},
	{name: "ssjoin.prune_kills.loop_break", unit: "count", better: "higher"},
	{name: "ssjoin.prune_kills.flush_bound", unit: "count", better: "higher"},
	{name: "ssjoin.prune_kills.length_filter", unit: "count", better: "higher"},
	{name: "ssjoin.prune_kills.prefix_pos", unit: "count", better: "higher"},
	{name: "ssjoin.reuse_hit_ratio", unit: "ratio", better: "higher"},
	{name: "ssjoin.useful_ratio", unit: "ratio", better: "higher"},
	{name: "ssjoin.pair_space", unit: "count", better: "lower"},
	{name: "ssjoin.q_used", unit: "count", better: "lower"},
	{name: "feature.extractor_ms", unit: "ms", better: "lower"},
	{name: "ranker.prepare_ms", unit: "ms", better: "lower"},
	{name: "ranker.next_ms.mean", unit: "ms", better: "lower"},
	{name: "ranker.fit_ms", unit: "ms", better: "lower"},
	{name: "ranker.predict_ms", unit: "ms", better: "lower"},
	{name: "ranker.feedback_ms", unit: "ms", better: "lower"},
	{name: "ranker.candidates", unit: "count", better: "lower"},
	{name: "ranker.iterations", unit: "count", better: "lower"},
	{name: "ranker.precision", unit: "ratio", better: "higher"},
	{name: "matches_found", unit: "count", better: "higher"},
	{name: "serve.route.create_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.tables_put_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.blocker_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.blocker_ms.p90", unit: "ms", better: "lower"},
	{name: "serve.route.join_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.next_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.labels_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.candidates_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.finish_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.report_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.route.delete_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.envelope_ms.p50", unit: "ms", better: "lower"},
	{name: "serve.non2xx", unit: "count", better: "lower"},
	{name: "runtime.gc_cycles_per_session", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_s_per_session", unit: "s", better: "lower"},
	{name: "process.cpu_s_per_session", unit: "s", better: "lower"},
	{name: "telemetry.trace_overhead_pct", unit: "%", better: "lower"},
}

func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
