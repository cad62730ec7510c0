package experiments

import (
	"fmt"

	"matchcatcher/internal/metrics"
)

// PerfGateResult is the output of the pinned CI perf-gate workload: a
// small, deterministic slice of the paper's evaluation that exercises
// the hot paths (joint top-k join over three M2 blockers and one full
// debug session for recall) in well under a minute at -scale 0.1.
//
// The workload is intentionally frozen: `mcperf check` compares its
// metrics against the committed BENCH_perf_gate.json baseline, so any
// change to the blocker list, k, or dataset fraction invalidates the
// baseline and must regenerate it (make perf-baseline).
type PerfGateResult struct {
	// Fig9 holds one joint top-k join timing per M2 blocker
	// (HASH1/HASH2/SIM1, k=1000, full fraction of the scaled dataset) —
	// the latency arm of the gate.
	Fig9 []Fig9Point
	// Recall is one Table-3 debug session on M2/HASH1 — the scale-free
	// accuracy arm of the gate (F, M_E, iterations are deterministic for
	// a fixed seed, so any drop flags exactly).
	Recall Table3Row
}

// RunPerfGate runs the pinned perf-gate workload: the Figure-9 M2 join
// sweep restricted to its three blockers at k=1000 on the full (scaled)
// dataset, then a single M2/HASH1 debug session.
func (e *Env) RunPerfGate(opt DebugOptions) (PerfGateResult, error) {
	specs := SpecsFor("M2")[:3] // HASH1, HASH2, SIM1 — as in Figure 9
	fig9, err := e.RunFig9("M2", specs, []int{1000}, []int{100})
	if err != nil {
		return PerfGateResult{}, err
	}
	recall, err := e.RunTable3Row(specs[0], opt)
	if err != nil {
		return PerfGateResult{}, err
	}
	return PerfGateResult{Fig9: fig9, Recall: recall}, nil
}

// FormatPerfGate renders the gate workload as its two arms.
func FormatPerfGate(r PerfGateResult) string {
	t := &metrics.Table{Headers: []string{"arm", "workload", "value"}}
	for _, p := range r.Fig9 {
		t.Add("latency", p.Dataset+"/"+p.Blocker+" k=1000 join", fmt.Sprintf("%.2fs", p.Seconds))
	}
	t.Add("latency", r.Recall.Dataset+"/"+r.Recall.Blocker+" topk", fmt.Sprintf("%.2fs", r.Recall.TopKTime.Seconds()))
	t.Add("recall", r.Recall.Dataset+"/"+r.Recall.Blocker+" F", r.Recall.F)
	t.Add("recall", r.Recall.Dataset+"/"+r.Recall.Blocker+" M_E", r.Recall.ME)
	t.Add("recall", r.Recall.Dataset+"/"+r.Recall.Blocker+" iterations", r.Recall.I)
	return t.String()
}
