package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"matchcatcher/internal/experiments"
	"matchcatcher/internal/runlog"
	"matchcatcher/internal/telemetry"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Exp != "table3" || o.Scale != 1 || o.K != 1000 || o.Seed != 1 || o.JSON || o.Datasets != "" || o.MetricsAddr != "" {
		t.Errorf("defaults = %+v", o)
	}
}

func TestParseFlagsValues(t *testing.T) {
	o, err := parseFlags([]string{"-exp", "fig9", "-scale", "0.25", "-k", "100",
		"-seed", "7", "-datasets", "M2", "-json", "-metrics-addr", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Exp != "fig9" || o.Scale != 0.25 || o.K != 100 || o.Seed != 7 ||
		o.Datasets != "M2" || !o.JSON || o.MetricsAddr != ":0" {
		t.Errorf("parsed = %+v", o)
	}
}

func TestParseFlagsErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-nope"}); err == nil {
		t.Error("want error for unknown flag")
	}
	if _, err := parseFlags([]string{"stray"}); err == nil {
		t.Error("want error for stray positional argument")
	}
	if _, err := parseFlags([]string{"-count", "0"}); err == nil {
		t.Error("want error for -count 0")
	}
}

func TestParseFlagsLedgerMode(t *testing.T) {
	o, err := parseFlags([]string{"-exp", "table3", "-count", "5", "-ledger", "runs.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Exp != "table3" || o.Count != 5 || o.Ledger != "runs.jsonl" {
		t.Errorf("parsed = %+v", o)
	}
	if o, _ := parseFlags(nil); o.Count != 1 || o.Ledger != "" {
		t.Errorf("defaults = %+v, want count=1 no ledger", o)
	}
}

// TestMetricsOf checks the ledger key shapes for every perf-sensitive
// row type (the perfstat direction inference hangs off these suffixes).
func TestMetricsOf(t *testing.T) {
	fig9 := []experiments.Fig9Point{{Dataset: "M2", Blocker: "HASH1", K: 1000, Pct: 40, Seconds: 1.5}}
	m := metricsOf(fig9)
	if m["fig9/M2/HASH1/k1000/pct40:join_seconds"] != 1.5 {
		t.Errorf("fig9 metrics = %v", m)
	}

	row := experiments.Table3Row{Dataset: "M2", Blocker: "HASH1", F: 42, ME: 50, I: 3, TopKTime: 2 * time.Second}
	m = metricsOf([]experiments.Table3Row{row})
	if m["table3/M2/HASH1:recall_f"] != 42 || m["table3/M2/HASH1:topk_seconds"] != 2 ||
		m["table3/M2/HASH1:recall_me"] != 50 || m["table3/M2/HASH1:iterations"] != 3 {
		t.Errorf("table3 metrics = %v", m)
	}

	// Non-perf rows contribute nothing (the wall clock still lands via
	// the per-rep record).
	if m := metricsOf(struct{}{}); len(m) != 0 {
		t.Errorf("unknown rows produced metrics: %v", m)
	}
}

// TestCollectAndMedianTable exercises the variance-mode summary path.
func TestCollectAndMedianTable(t *testing.T) {
	c := &bench{opts: cliOptions{}, stdout: &bytes.Buffer{}, stderr: &bytes.Buffer{}}
	c.collect(nil) // nil collected map: no-op, no panic

	var recs []runlog.Record
	for _, s := range []float64{1.0, 1.2, 1.1} {
		c.collected = map[string]float64{}
		c.collect([]experiments.Fig9Point{{Dataset: "M2", Blocker: "HASH1", K: 1000, Pct: 100, Seconds: s}})
		rec := runlog.New("mcbench", "fig9", 1, map[string]any{"scale": 0.1})
		rec.Metrics = c.collected
		recs = append(recs, rec)
	}
	table := medianTable(recs)
	if !strings.Contains(table, "fig9/M2/HASH1/k1000/pct100:join_seconds") ||
		!strings.Contains(table, "1.1") {
		t.Errorf("median table:\n%s", table)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	c := &bench{opts: cliOptions{Exp: "nope"}, stdout: &bytes.Buffer{}, stderr: &bytes.Buffer{}}
	err := c.run(experiments.NewEnv(1), "nope", "", experiments.DebugOptions{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown experiment", err)
	}
}

// TestJSONOutputIsValid runs a real (tiny) experiment with -json and
// checks that stdout is one valid JSON document carrying both the rows
// and the run's telemetry snapshot, with progress chatter on stderr.
func TestJSONOutputIsValid(t *testing.T) {
	var stdout, stderr bytes.Buffer
	opts := cliOptions{Exp: "table3", Scale: 1, K: 100, Seed: 1, Datasets: "F-Z", JSON: true}
	c := &bench{opts: opts, stdout: &stdout, stderr: &stderr}
	env := experiments.NewEnv(opts.Scale) // F-Z is tiny even at full scale
	if err := c.run(env, opts.Exp, opts.Datasets, experiments.DebugOptions{K: opts.K, Seed: opts.Seed}); err != nil {
		t.Fatal(err)
	}

	if !json.Valid(stdout.Bytes()) {
		t.Fatalf("-json stdout is not valid JSON:\n%s", stdout.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Exp != "table3" {
		t.Errorf("exp = %q", rep.Exp)
	}
	rows, ok := rep.Rows.([]interface{})
	if !ok || len(rows) == 0 {
		t.Errorf("rows = %#v, want non-empty array", rep.Rows)
	}
	if rep.Telemetry == nil || rep.Telemetry.NumSeries() == 0 {
		t.Fatal("telemetry snapshot missing from -json output")
	}
	found := 0
	for k := range rep.Telemetry.Counters {
		if strings.HasPrefix(k, "mc_") {
			found++
		}
	}
	if found == 0 {
		t.Errorf("no mc_* counters in snapshot: %v", rep.Telemetry.Counters)
	}
	// Progress chatter must not leak into the JSON stream.
	if !strings.Contains(stderr.String(), "done F-Z/") {
		t.Errorf("progress lines missing from stderr: %q", stderr.String())
	}
}

// TestProfileAndTraceCapture exercises the -profile-dir and -trace-out
// wiring on a real tiny experiment: valid pprof files appear, and the
// Chrome trace holds the session's span trees.
func TestProfileAndTraceCapture(t *testing.T) {
	dir := t.TempDir()
	stop, err := startProfiles(dir, "table3")
	if err != nil {
		t.Fatal(err)
	}

	tracer := telemetry.NewTracer(nil)
	var stdout, stderr bytes.Buffer
	c := &bench{opts: cliOptions{Exp: "table3"}, stdout: &stdout, stderr: &stderr}
	opt := experiments.DebugOptions{K: 100, Seed: 1, Trace: tracer}
	if err := c.run(experiments.NewEnv(1), "table3", "F-Z", opt); err != nil {
		t.Fatal(err)
	}

	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table3_cpu.pprof", "table3_heap.pprof"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing profile %s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}

	if tracer.Len() == 0 {
		t.Fatal("tracer collected no spans from the experiment run")
	}
	tracePath := filepath.Join(dir, "trace.json")
	if err := writeChromeTrace(tracer, tracePath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%.400s", err, data)
	}
	// The join's per-config spans must reach the trace too, not just
	// the session roots.
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"debug.session", "ssjoin.config"} {
		if !names[want] {
			t.Errorf("chrome trace has no %s span:\n%.400s", want, data)
		}
	}
}
