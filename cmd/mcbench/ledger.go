// Ledger wiring: -ledger appends one runlog record per repetition (with
// the run's telemetry snapshot attached), and -count N repeats the
// experiment over fresh environments so mcperf gets N samples per
// metric. Metric keys follow the "<workload...>:<quantity>" convention
// that internal/perfstat uses to infer regression direction.
package main

import (
	"fmt"
	"sort"

	"matchcatcher/internal/experiments"
	"matchcatcher/internal/metrics"
	"matchcatcher/internal/perfstat"
	"matchcatcher/internal/runlog"
)

// collect folds an experiment's rows into the current repetition's
// metric map (a no-op outside ledger/count mode).
func (c *bench) collect(rows interface{}) {
	if c.collected == nil {
		return
	}
	for k, v := range metricsOf(rows) {
		c.collected[k] = v
	}
}

// metricsOf extracts ledger metrics from experiment rows. Only the
// perf-sensitive row types participate; other experiments record just
// their wall time.
func metricsOf(rows interface{}) map[string]float64 {
	m := map[string]float64{}
	switch rs := rows.(type) {
	case []experiments.Fig9Point:
		for _, p := range rs {
			m[fmt.Sprintf("fig9/%s/%s/k%d/pct%d:join_seconds", p.Dataset, p.Blocker, p.K, p.Pct)] = p.Seconds
		}
	case []experiments.Table3Row:
		// Latency plus the deterministic, scale-free accuracy quantities.
		for _, r := range rs {
			key := "table3/" + r.Dataset + "/" + r.Blocker
			m[key+":topk_seconds"] = r.TopKTime.Seconds()
			m[key+":recall_f"] = float64(r.F)
			m[key+":recall_me"] = float64(r.ME)
			m[key+":iterations"] = float64(r.I)
		}
	}
	return m
}

// medianTable summarizes the repetitions' pooled samples, the -count N
// variance-mode output.
func medianTable(recs []runlog.Record) string {
	s := runlog.Samples(recs)
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := &metrics.Table{Headers: []string{"metric", "median", "spread", "n"}}
	for _, k := range keys {
		sum := perfstat.Summarize(s[k])
		t.Add(k, fmt.Sprintf("%.4g", sum.Median), fmt.Sprintf("±%.0f%%", sum.SpreadPct()), sum.N)
	}
	return t.String()
}
