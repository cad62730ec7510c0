// Command mcperf is the statistical gatekeeper over the runlog ledger:
// benchstat-style comparison and regression checking of repeated
// mcbench/mcdebug runs.
//
//	mcperf record -ledger runs.jsonl -exp myexp -metric my/key:wall_seconds=1.23
//	go test -bench . | mcperf record -ledger runs.jsonl -from-bench
//	mcperf diff old.jsonl new.jsonl
//	mcperf check -baseline BENCH_overhead.json -ledger runs.jsonl
//	mcperf report -ledger runs.jsonl -format json -out BENCH_overhead.json
//	go test -bench 'On$|Off$' | mcperf overhead
//
// diff compares two ledgers arm-by-arm (median, ~95% CI, Mann–Whitney
// p) and is purely informational. check compares a ledger against a
// committed baseline file and exits 1 on any blocking regression:
// scale-free metrics (recall, counts) always block; latency metrics
// block only when the baseline was recorded on a comparable machine
// (same GOOS/GOARCH/CPU model — cross-machine nanosecond comparisons
// are statistically meaningless). report
// regenerates the committed BENCH_*.json baseline format (or a
// markdown trend table) mechanically from the ledger. overhead gates
// paired …On/…Off benchmarks against the on/off overhead budget.
//
// Exit codes: 0 ok, 1 regression found (check) or over budget
// (overhead), 2 usage or I/O error, or (overhead) no complete pair.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"matchcatcher/internal/perfstat"
	"matchcatcher/internal/runlog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: mcperf <command> [flags]

commands:
  record   append a measurement record to a ledger (explicit -metric
           flags, or -from-bench to parse 'go test -bench' output on stdin)
  diff     compare two ledgers, benchstat-style
  check    compare a ledger against a committed baseline; exit 1 on
           significant regression
  report   regenerate the baseline JSON (BENCH_*.json) or a markdown
           trend table from a ledger
  overhead read repeated 'go test -bench' output of …On/…Off benchmark
           pairs on stdin; exit 1 when a pair's median paired on/off
           ratio is over the 5% budget

run 'mcperf <command> -h' for the command's flags.
`)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "record":
		return cmdRecord(args[1:], stdin, stdout, stderr)
	case "diff":
		return cmdDiff(args[1:], stdout, stderr)
	case "check":
		return cmdCheck(args[1:], stdout, stderr)
	case "report":
		return cmdReport(args[1:], stdout, stderr)
	case "overhead":
		return cmdOverhead(args[1:], stdin, stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "mcperf: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

// repeatable is a repeatable string flag.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

// statFlags are the shared statistical knobs of diff and check.
func statFlags(fs *flag.FlagSet) *perfstat.Thresholds {
	th := &perfstat.Thresholds{}
	fs.Float64Var(&th.Alpha, "alpha", 0.05, "significance level for the Mann–Whitney test")
	fs.Float64Var(&th.MinDeltaPct, "min-delta", 0.05, "practical-significance floor on |median delta| (fraction, 0.05 = 5%)")
	fs.IntVar(&th.MinSamples, "min-samples", 2, "per-arm sample floor below which verdicts are indeterminate")
	return th
}

func cmdRecord(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcperf record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledger := fs.String("ledger", "", "ledger path to append to (required)")
	tool := fs.String("tool", "mcperf", "producing tool name for the record")
	exp := fs.String("exp", "", "workload label")
	seed := fs.Int64("seed", 0, "seed the measurement ran with")
	notes := fs.String("notes", "", "free-form note stored on the record")
	fromBench := fs.Bool("from-bench", false, "parse 'go test -bench' output from stdin (one record per benchmark line)")
	var metricFlags, seriesFlags repeatable
	fs.Var(&metricFlags, "metric", "scalar sample as key=value (repeatable)")
	fs.Var(&seriesFlags, "series", "per-iteration series as key=v1,v2,... (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ledger == "" {
		fmt.Fprintln(stderr, "mcperf record: -ledger is required")
		return 2
	}

	var recs []runlog.Record
	if len(metricFlags)+len(seriesFlags) > 0 {
		rec := runlog.New(*tool, *exp, *seed, map[string]any{"source": "mcperf record"})
		rec.Notes = *notes
		rec.Metrics = map[string]float64{}
		for _, m := range metricFlags {
			k, v, err := splitKV(m)
			if err != nil {
				fmt.Fprintf(stderr, "mcperf record: -metric %q: %v\n", m, err)
				return 2
			}
			rec.Metrics[k] = v
		}
		for _, s := range seriesFlags {
			k, vs, err := splitSeries(s)
			if err != nil {
				fmt.Fprintf(stderr, "mcperf record: -series %q: %v\n", s, err)
				return 2
			}
			if rec.Series == nil {
				rec.Series = map[string][]float64{}
			}
			rec.Series[k] = vs
		}
		recs = append(recs, rec)
	}
	if *fromBench {
		parsed, err := parseBenchOutput(stdin, *tool, *exp, *seed, *notes)
		if err != nil {
			fmt.Fprintf(stderr, "mcperf record: %v\n", err)
			return 2
		}
		recs = append(recs, parsed...)
	}
	if len(recs) == 0 {
		fmt.Fprintln(stderr, "mcperf record: nothing to record (give -metric/-series or -from-bench)")
		return 2
	}
	if err := runlog.Append(*ledger, recs...); err != nil {
		fmt.Fprintf(stderr, "mcperf record: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "recorded %d record(s) to %s\n", len(recs), *ledger)
	return 0
}

func splitKV(s string) (string, float64, error) {
	k, vs, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return "", 0, fmt.Errorf("want key=value")
	}
	v, err := strconv.ParseFloat(vs, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad value: %w", err)
	}
	return k, v, nil
}

func splitSeries(s string) (string, []float64, error) {
	k, vs, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return "", nil, fmt.Errorf("want key=v1,v2,...")
	}
	var out []float64
	for _, f := range strings.Split(vs, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad series value %q: %w", f, err)
		}
		out = append(out, v)
	}
	return k, out, nil
}

// parseBenchOutput converts `go test -bench` lines into ledger records:
// one record per benchmark result line, so -count N repetitions pool
// into N samples per metric. "BenchmarkX-8  10  123 ns/op  45 B/op"
// becomes bench/BenchmarkX-8:time_ns and bench/BenchmarkX-8:alloc_bytes.
func parseBenchOutput(r io.Reader, tool, exp string, seed int64, notes string) ([]runlog.Record, error) {
	var recs []runlog.Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			var key string
			switch fields[i+1] {
			case "ns/op":
				key = "bench/" + fields[0] + ":time_ns"
			case "B/op":
				key = "bench/" + fields[0] + ":alloc_bytes"
			case "allocs/op":
				key = "bench/" + fields[0] + ":allocs"
			default:
				continue
			}
			metrics[key] = v
		}
		if len(metrics) == 0 {
			continue
		}
		rec := runlog.New(tool, exp, seed, map[string]any{"source": "go test -bench", "benchmark": fields[0]})
		rec.Notes = notes
		rec.Metrics = metrics
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return recs, nil
}

func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcperf diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	th := statFlags(fs)
	jsonOut := fs.Bool("json", false, "emit comparisons as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: mcperf diff [flags] <old.jsonl> <new.jsonl>")
		return 2
	}
	oldRecs, err := runlog.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "mcperf diff: %v\n", err)
		return 2
	}
	newRecs, err := runlog.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "mcperf diff: %v\n", err)
		return 2
	}
	cs := perfstat.CompareAll(runlog.Samples(oldRecs), runlog.Samples(newRecs), *th)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cs); err != nil {
			fmt.Fprintf(stderr, "mcperf diff: %v\n", err)
			return 2
		}
		return 0
	}
	fmt.Fprint(stdout, perfstat.FormatTable(cs))
	if envA, envB := firstEnv(oldRecs), firstEnv(newRecs); !envA.Comparable(envB) {
		fmt.Fprintf(stdout, "\nnote: ledgers were measured on different machines (%s/%s %q vs %s/%s %q); latency deltas are not meaningful\n",
			envA.GOOS, envA.GOARCH, envA.CPU, envB.GOOS, envB.GOARCH, envB.CPU)
	}
	return 0
}

func firstEnv(recs []runlog.Record) runlog.Fingerprint {
	if len(recs) == 0 {
		return runlog.Fingerprint{}
	}
	return recs[0].Env
}

// checkReport is the -json envelope of mcperf check.
type checkReport struct {
	Baseline      string                `json:"baseline"`
	Ledger        string                `json:"ledger"`
	EnvComparable bool                  `json:"env_comparable"`
	Comparisons   []perfstat.Comparison `json:"comparisons"`
	Blocking      []string              `json:"blocking_regressions"`
	Advisory      []string              `json:"advisory_regressions"`
	Pass          bool                  `json:"pass"`
}

func cmdCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcperf check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	th := statFlags(fs)
	baselinePath := fs.String("baseline", "", "committed baseline file (required)")
	ledgerPath := fs.String("ledger", "", "ledger with the current samples (required)")
	jsonOut := fs.Bool("json", false, "emit the check result as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath == "" || *ledgerPath == "" {
		fmt.Fprintln(stderr, "mcperf check: -baseline and -ledger are required")
		return 2
	}
	base, err := perfstat.ReadBaselineFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "mcperf check: %v\n", err)
		return 2
	}
	recs, err := runlog.ReadFile(*ledgerPath)
	if err != nil {
		fmt.Fprintf(stderr, "mcperf check: %v\n", err)
		return 2
	}
	if len(recs) == 0 {
		fmt.Fprintln(stderr, "mcperf check: ledger is empty")
		return 2
	}

	comparable := firstEnv(recs).Comparable(base.Environment)
	cs := perfstat.CompareAll(base.SampleMap(), runlog.Samples(recs), *th)

	rep := checkReport{
		Baseline:      *baselinePath,
		Ledger:        *ledgerPath,
		EnvComparable: comparable,
	}
	for _, c := range cs {
		rep.Comparisons = append(rep.Comparisons, c)
		if !c.Regression {
			continue
		}
		// Latency across machines is advisory: nanoseconds measured on
		// different CPUs do not compare (benchstat methodology).
		// Scale-free quantities (recall, counts) always block.
		if c.Direction == perfstat.LowerIsBetter && !comparable {
			rep.Advisory = append(rep.Advisory, c.Metric)
		} else {
			rep.Blocking = append(rep.Blocking, c.Metric)
		}
	}
	rep.Pass = len(rep.Blocking) == 0

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "mcperf check: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprint(stdout, perfstat.FormatTable(cs))
		if !comparable {
			fmt.Fprintf(stdout, "\nenv mismatch: baseline %s/%s %q vs current %s/%s %q — latency regressions are advisory\n",
				base.Environment.GOOS, base.Environment.GOARCH, base.Environment.CPU,
				firstEnv(recs).GOOS, firstEnv(recs).GOARCH, firstEnv(recs).CPU)
		}
		for _, m := range rep.Advisory {
			fmt.Fprintf(stdout, "advisory regression: %s\n", m)
		}
		for _, m := range rep.Blocking {
			fmt.Fprintf(stdout, "BLOCKING regression: %s\n", m)
		}
		if rep.Pass {
			fmt.Fprintln(stdout, "mcperf check: PASS")
		} else {
			fmt.Fprintln(stdout, "mcperf check: FAIL")
		}
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcperf report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("ledger", "", "ledger to aggregate (required)")
	format := fs.String("format", "json", "output format: json (baseline file) or markdown (trend table)")
	desc := fs.String("desc", "", "description embedded in the baseline")
	out := fs.String("out", "", "write to this path instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ledgerPath == "" {
		fmt.Fprintln(stderr, "mcperf report: -ledger is required")
		return 2
	}
	recs, err := runlog.ReadFile(*ledgerPath)
	if err != nil {
		fmt.Fprintf(stderr, "mcperf report: %v\n", err)
		return 2
	}

	var data []byte
	switch *format {
	case "json":
		base, err := perfstat.BuildBaseline(recs, *desc)
		if err != nil {
			fmt.Fprintf(stderr, "mcperf report: %v\n", err)
			return 2
		}
		data, err = base.MarshalIndent()
		if err != nil {
			fmt.Fprintf(stderr, "mcperf report: %v\n", err)
			return 2
		}
	case "markdown":
		data = []byte(markdownTrend(recs))
	default:
		fmt.Fprintf(stderr, "mcperf report: unknown -format %q (want json or markdown)\n", *format)
		return 2
	}
	if *out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mcperf report: %v\n", err)
		return 2
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %s (%d metrics from %d records)\n", *out, countMetrics(recs), len(recs))
	}
	return 0
}

func countMetrics(recs []runlog.Record) int {
	return len(runlog.Samples(recs))
}

// markdownTrend renders per-metric medians, one column per build
// revision (in order of first appearance in the ledger), so a ledger
// spanning commits reads as a trend table.
func markdownTrend(recs []runlog.Record) string {
	type group struct {
		label   string
		samples map[string][]float64
	}
	var groups []group
	idx := map[string]int{}
	for _, r := range recs {
		label := r.Build.Revision
		if len(label) > 10 {
			label = label[:10]
		}
		if label == "" || label == "unknown" {
			label = "rev?"
		}
		if r.Build.Dirty {
			label += "+dirty"
		}
		gi, ok := idx[label]
		if !ok {
			gi = len(groups)
			idx[label] = gi
			groups = append(groups, group{label: label, samples: map[string][]float64{}})
		}
		for metric, v := range r.Metrics {
			groups[gi].samples[metric] = append(groups[gi].samples[metric], v)
		}
	}

	metricSet := map[string]bool{}
	for _, g := range groups {
		for m := range g.samples {
			metricSet[m] = true
		}
	}
	metricsSorted := make([]string, 0, len(metricSet))
	for m := range metricSet {
		metricsSorted = append(metricsSorted, m)
	}
	sort.Strings(metricsSorted)

	var sb strings.Builder
	sb.WriteString("# Performance trend\n\n")
	if len(recs) > 0 {
		env := recs[0].Env
		fmt.Fprintf(&sb, "Environment: %s/%s, %d CPUs, %s", env.GOOS, env.GOARCH, env.NumCPU, env.GoVersion)
		if env.CPU != "" {
			fmt.Fprintf(&sb, ", %s", env.CPU)
		}
		fmt.Fprintf(&sb, ". Records: %d.\n\n", len(recs))
	}
	sb.WriteString("| metric | dir |")
	for _, g := range groups {
		fmt.Fprintf(&sb, " %s |", g.label)
	}
	sb.WriteString("\n|---|---|")
	for range groups {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")
	for _, m := range metricsSorted {
		fmt.Fprintf(&sb, "| %s | %s |", m, perfstat.DirectionFor(m).String())
		for _, g := range groups {
			s := perfstat.Summarize(g.samples[m])
			if s.N == 0 {
				sb.WriteString(" — |")
			} else {
				fmt.Fprintf(&sb, " %.4g ±%.0f%% (n=%d) |", s.Median, s.SpreadPct(), s.N)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// overheadBudgetPct is the on/off overhead budget of every paired gate:
// the median paired On/Off ratio may exceed 1 by at most this percent.
const overheadBudgetPct = 5.0

// cmdOverhead enforces the overhead budget on paired benchmarks. It
// reads concatenated `go test -bench` output from several invocations
// of a benchmark set in which every "…On" benchmark has an "…Off" twin
// (BenchmarkServeRequestRecorderOn/Off, BenchmarkJoinProgressOn/Off),
// pairs the k-th On sample with the k-th Off sample, and gates the
// median of the per-invocation ratios.
//
// Why this keeps a 5% gate honest on shared, noisy runners: both arms
// run in one process on one machine, so their ratio is meaningful where
// absolute nanoseconds are not; one invocation runs an On rep and its
// Off twin seconds apart, so the k-th samples were taken under
// correlated load (a single `go test -count N` run is not paired like
// this: it runs all N On reps before the N Off reps, and load drift
// biases every statistic); and the median discards invocations where a
// load spike landed on one arm. scripts/overhead_bench.sh drives the
// invocations.
func cmdOverhead(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcperf overhead", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	recs, err := parseBenchOutput(stdin, "mcperf", "overhead", 0, "")
	if err != nil {
		fmt.Fprintf(stderr, "mcperf overhead: %v\n", err)
		return 2
	}
	// ns/op samples per benchmark (GOMAXPROCS suffix dropped), in input
	// order, and the pair bases seen on either arm.
	samples := map[string][]float64{}
	bases := map[string]bool{}
	for _, r := range recs {
		bench, _ := r.Config["benchmark"].(string)
		v, ok := r.Metrics["bench/"+bench+":time_ns"]
		if !ok {
			continue
		}
		name := trimProcs(bench)
		samples[name] = append(samples[name], v)
		if base, ok := strings.CutSuffix(name, "On"); ok {
			bases[base] = true
		} else if base, ok := strings.CutSuffix(name, "Off"); ok {
			bases[base] = true
		}
	}
	if len(bases) == 0 {
		fmt.Fprintln(stderr, "mcperf overhead: no paired On/Off benchmarks in input")
		return 2
	}
	sorted := make([]string, 0, len(bases))
	for b := range bases {
		sorted = append(sorted, b)
	}
	sort.Strings(sorted)
	over := false
	for _, base := range sorted {
		on, off := samples[base+"On"], samples[base+"Off"]
		var ratios []float64
		for i := 0; i < min(len(on), len(off)); i++ {
			if off[i] > 0 {
				ratios = append(ratios, on[i]/off[i])
			}
		}
		if len(ratios) == 0 {
			fmt.Fprintf(stderr, "mcperf overhead: %s is missing an arm (%d On, %d Off samples)\n",
				base, len(on), len(off))
			return 2
		}
		pct := (perfstat.Summarize(ratios).Median - 1) * 100
		verdict := "ok"
		if pct > overheadBudgetPct {
			verdict, over = "OVER BUDGET", true
		}
		fmt.Fprintf(stdout, "%s: median paired on/off ratio over %d invocation(s): overhead %+.1f%% (budget %.1f%%) %s\n",
			base, len(ratios), pct, overheadBudgetPct, verdict)
	}
	if over {
		return 1
	}
	return 0
}

// trimProcs drops the "-N" GOMAXPROCS suffix go test appends to a
// benchmark name when -cpu is not 1.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}
