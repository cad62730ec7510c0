package experiments

import (
	"fmt"
	"time"

	"matchcatcher/internal/core"
	"matchcatcher/internal/metrics"
	"matchcatcher/internal/oracle"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/telemetry"
)

// Table3Row is one row of the paper's Table 3: for one dataset and
// blocker, the candidate-set size C, the killed-off matches M_D, the
// candidate pool |E| (union of top-k lists), the matches in E (M_E), the
// matches the verifier retrieves when run to its natural stopping point
// with a synthetic user (F), and the iterations it needed (I).
type Table3Row struct {
	Dataset string
	Blocker string
	C       int
	MD      int
	E       int
	ME      int
	F       int
	I       int
	// TopKTime is the joint top-k module's runtime (the §6.4 numbers).
	TopKTime time.Duration
}

// DebugOptions bundles the pipeline options for experiment runs.
type DebugOptions struct {
	K            int // per-config top-k (paper: 1000)
	N            int // pairs per verifier iteration (paper: 20)
	Seed         int64
	VerifierMode ranker.Mode
	// Trace, when non-nil, collects every debug session's span tree
	// (mcbench -trace-out); sessions from different rows land as sibling
	// trees in one tracer.
	Trace *telemetry.Tracer
}

func (o DebugOptions) core() core.Options {
	opt := core.Options{}
	opt.Join.K = o.K
	opt.Verifier.N = o.N
	opt.Verifier.Seed = o.Seed + 7
	opt.Verifier.Mode = o.VerifierMode
	opt.Trace = o.Trace
	return opt
}

// RunTable3Row debugs one blocker and computes its Table 3 row.
func (e *Env) RunTable3Row(s Spec, opt DebugOptions) (Table3Row, error) {
	d, c, err := e.Block(s.Dataset, s.Blocker)
	if err != nil {
		return Table3Row{}, err
	}
	row := Table3Row{Dataset: s.Dataset, Blocker: s.Label, C: c.Len()}
	row.MD = d.GoldCount() - metrics.Intersection(d.Gold, c)

	start := time.Now()
	dbg, err := core.New(d.A, d.B, c, opt.core())
	if err != nil {
		return Table3Row{}, fmt.Errorf("debugging %s/%s: %w", s.Dataset, s.Label, err)
	}
	row.TopKTime = time.Since(start)
	eSet := dbg.Candidates()
	row.E = eSet.Len()
	row.ME = metrics.Intersection(d.Gold, eSet)

	u := oracle.New(d.Gold, 0, opt.Seed+13)
	res := dbg.Run(u.Label)
	row.F = len(res.Matches)
	row.I = res.Iterations

	// Mirror the paper's Table-3 counters (M_D, M_E, F) as gauges so the
	// §6 quantities are scrapeable alongside the pipeline metrics.
	reg := telemetry.Default()
	ls := []telemetry.Label{telemetry.L("dataset", s.Dataset), telemetry.L("blocker", s.Label)}
	reg.Gauge("mc_experiments_md", ls...).Set(float64(row.MD))
	reg.Gauge("mc_experiments_me", ls...).Set(float64(row.ME))
	reg.Gauge("mc_experiments_f", ls...).Set(float64(row.F))
	reg.Gauge("mc_experiments_iterations", ls...).Set(float64(row.I))
	return row, nil
}

// RunTable3 computes Table 3 rows for the given blockers.
func (e *Env) RunTable3(specs []Spec, opt DebugOptions) ([]Table3Row, error) {
	var rows []Table3Row
	for _, s := range specs {
		row, err := e.RunTable3Row(s, opt)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders rows as the paper formats Table 3: M_E and F carry
// their percentages (of M_D and M_E respectively) in parentheses.
func FormatTable3(rows []Table3Row) string {
	t := &metrics.Table{Headers: []string{"Dataset", "Q", "C", "M_D", "E", "M_E", "F", "I", "topk(s)"}}
	for _, r := range rows {
		t.Add(r.Dataset, r.Blocker, r.C, r.MD, r.E,
			fmt.Sprintf("%d (%s)", r.ME, metrics.Pct(r.ME, r.MD)),
			fmt.Sprintf("%d (%s)", r.F, metrics.Pct(r.F, r.ME)),
			r.I,
			fmt.Sprintf("%.1f", r.TopKTime.Seconds()))
	}
	return t.String()
}
