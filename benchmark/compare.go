package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"matchcatcher/internal/perfstat"
)

// samplesOf groups a results file's runs by workload, then metric.
func samplesOf(rf resultsFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		m := out[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			out[r.Workload] = m
		}
		for k, v := range r.Metrics {
			m[k] = append(m[k], v)
		}
	}
	return out
}

// catalogue is every metric in report order.
func catalogue() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

// printSummary prints, per workload and metric, the median and quartiles
// across the runs just made, and the quartile spread as a share of the
// median: what a metric's bound must exceed for a comparison to resolve.
func printSummary(rf resultsFile, out io.Writer) {
	s := samplesOf(rf)
	runs := map[string]int{}
	for _, r := range rf.Runs {
		runs[r.Workload]++
	}
	for _, w := range workloads {
		m := s[w.name]
		if m == nil {
			continue
		}
		fmt.Fprintf(out, "-- %s: %d run(s)\n", w.name, runs[w.name])
		for _, d := range catalogue() {
			v, ok := m[d.name]
			if !ok {
				continue
			}
			sum := summarize(v)
			fmt.Fprintf(out, "  %-34s %-6s n=%-3d median=%-11.5g q1=%-11.5g q3=%-11.5g spread=%.1f%%\n",
				d.name, d.unit, sum.N, sum.P50, sum.Q1, sum.Q3, 100*spread(v))
		}
	}
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints, for every (workload, metric) pair present in
// either file, both sides' medians and quartiles and a verdict.
func compareFiles(pathA, pathB string, out io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a: %s (%s, nproc %d)\nb: %s (%s, nproc %d)\n",
		pathA, a.Build.Revision, a.Env.NumCPU, pathB, b.Build.Revision, b.Env.NumCPU)
	if !a.Env.Comparable(b.Env) || a.Env.NumCPU != b.Env.NumCPU {
		fmt.Fprintln(out, "warning: the two sides ran on different machines; their times are not comparable")
	}
	sa, sb := samplesOf(a), samplesOf(b)
	for _, w := range workloads {
		if sa[w.name] == nil && sb[w.name] == nil {
			continue
		}
		fmt.Fprintf(out, "-- %s\n", w.name)
		fmt.Fprintf(out, "  %-34s %-6s %-31s %-31s %8s  %s\n", "metric", "unit", "a: median [q1, q3]", "b: median [q1, q3]", "delta", "verdict")
		for _, d := range catalogue() {
			va, vb := sa[w.name][d.name], sb[w.name][d.name]
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-34s %-6s %-31s %-31s %+7.1f%%  %s\n",
				d.name, d.unit, side(va), side(vb), 100*delta(va, vb), judge(d, va, vb))
		}
	}
	return nil
}

func side(v []float64) string {
	if len(v) == 0 {
		return "—"
	}
	d := summarize(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", d.P50, d.Q1, d.Q3, d.N)
}

// delta is b's median change relative to a's.
func delta(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ma := perfstat.Summarize(a).Median
	if ma == 0 {
		return 0
	}
	return (perfstat.Summarize(b).Median - ma) / math.Abs(ma)
}

// judge gives b's verdict against a for one metric: "within bound",
// "better" or "worse" by more than the bound, or "unresolved" when either
// side's quartile spread is wider than the bound, unless every run of b
// beats every run of a. Metrics without a bound are "info".
func judge(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if d.bound == 0 || perfstat.Summarize(a).Median == 0 {
		return "info"
	}
	worse := delta(a, b)
	if d.better == "higher" {
		worse = -worse
	}
	if math.Max(spread(a), spread(b)) > d.bound {
		if allBetter(d, a, b) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > d.bound:
		return "worse"
	case worse < -d.bound:
		return "better"
	}
	return "within bound"
}

func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := perfstat.Summarize(a), perfstat.Summarize(b)
	if d.better == "higher" {
		return sb.Min > sa.Max
	}
	return sb.Max < sa.Min
}
