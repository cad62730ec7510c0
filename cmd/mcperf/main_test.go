package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"matchcatcher/internal/perfstat"
	"matchcatcher/internal/runlog"
)

// writeLedger builds a synthetic ledger where each metric key maps to
// one sample per record (len of every slice must match).
func writeLedger(t *testing.T, path string, samples map[string][]float64) {
	t.Helper()
	n := 0
	for _, vs := range samples {
		n = len(vs)
		break
	}
	var recs []runlog.Record
	for i := 0; i < n; i++ {
		r := runlog.New("mcbench", "perf-gate", 1, map[string]any{"scale": 0.1})
		r.Metrics = map[string]float64{}
		for k, vs := range samples {
			r.Metrics[k] = vs[i]
		}
		recs = append(recs, r)
	}
	if err := runlog.Append(path, recs...); err != nil {
		t.Fatal(err)
	}
}

// runCmd invokes run() capturing stdout/stderr.
func runCmd(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

// TestCheckFlagsInjectedSlowdown is the ISSUE.md acceptance criterion:
// build a baseline from a tight ledger, inject a ~10% join slowdown,
// and require `mcperf check` to exit 1; a same-distribution rerun must
// exit 0.
func TestCheckFlagsInjectedSlowdown(t *testing.T) {
	dir := t.TempDir()
	baseLedger := filepath.Join(dir, "base.jsonl")
	writeLedger(t, baseLedger, map[string][]float64{
		"perfgate/m2/HASH1/k1000:join_seconds": {1.00, 1.01, 0.99, 1.02, 0.98},
		"perfgate/m2/HASH1:recall_f":           {12, 12, 12, 12, 12},
	})

	baseline := filepath.Join(dir, "BENCH_perf_gate.json")
	code, _, errb := runCmd(t, "", "report", "-ledger", baseLedger, "-format", "json", "-out", baseline)
	if code != 0 {
		t.Fatalf("report exit = %d, stderr: %s", code, errb)
	}

	// Injected ~10% slowdown: blocking regression, exit 1.
	slowLedger := filepath.Join(dir, "slow.jsonl")
	writeLedger(t, slowLedger, map[string][]float64{
		"perfgate/m2/HASH1/k1000:join_seconds": {1.10, 1.11, 1.09, 1.12, 1.08},
		"perfgate/m2/HASH1:recall_f":           {12, 12, 12, 12, 12},
	})
	code, out, _ := runCmd(t, "", "check", "-baseline", baseline, "-ledger", slowLedger)
	if code != 1 {
		t.Fatalf("check exit = %d, want 1 for injected slowdown\n%s", code, out)
	}
	if !strings.Contains(out, "BLOCKING regression: perfgate/m2/HASH1/k1000:join_seconds") {
		t.Errorf("missing blocking regression line:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("missing FAIL verdict:\n%s", out)
	}

	// Same-seed repeat (same distribution): exit 0.
	okLedger := filepath.Join(dir, "ok.jsonl")
	writeLedger(t, okLedger, map[string][]float64{
		"perfgate/m2/HASH1/k1000:join_seconds": {1.01, 0.99, 1.00, 1.02, 0.97},
		"perfgate/m2/HASH1:recall_f":           {12, 12, 12, 12, 12},
	})
	code, out, _ = runCmd(t, "", "check", "-baseline", baseline, "-ledger", okLedger)
	if code != 0 {
		t.Fatalf("check exit = %d, want 0 for same distribution\n%s", code, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Errorf("missing PASS verdict:\n%s", out)
	}

	// A recall drop always blocks, even with fast joins.
	recallLedger := filepath.Join(dir, "recall.jsonl")
	writeLedger(t, recallLedger, map[string][]float64{
		"perfgate/m2/HASH1/k1000:join_seconds": {1.00, 1.01, 0.99, 1.00, 1.01},
		"perfgate/m2/HASH1:recall_f":           {11, 11, 11, 11, 11},
	})
	code, out, _ = runCmd(t, "", "check", "-baseline", baseline, "-ledger", recallLedger, "-json")
	if code != 1 {
		t.Fatalf("check exit = %d, want 1 for recall drop\n%s", code, out)
	}
	var rep checkReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("check -json output is not JSON: %v\n%s", err, out)
	}
	if rep.Pass || len(rep.Blocking) != 1 || rep.Blocking[0] != "perfgate/m2/HASH1:recall_f" {
		t.Errorf("recall-drop report = %+v", rep)
	}
}

// TestCheckEnvMismatchAdvisory: latency regressions against a baseline
// from a different machine are advisory (exit 0) unless -strict-env.
func TestCheckEnvMismatchAdvisory(t *testing.T) {
	dir := t.TempDir()
	baseLedger := filepath.Join(dir, "base.jsonl")
	writeLedger(t, baseLedger, map[string][]float64{
		"x:join_seconds": {1.00, 1.01, 0.99, 1.02, 0.98},
	})
	base := filepath.Join(dir, "base.json")
	if code, _, errb := runCmd(t, "", "report", "-ledger", baseLedger, "-out", base); code != 0 {
		t.Fatalf("report failed: %s", errb)
	}
	// Rewrite the baseline's environment to a foreign machine.
	b, err := perfstat.ReadBaselineFile(base)
	if err != nil {
		t.Fatal(err)
	}
	b.Environment.CPU = "Imaginary Quantum CPU @ 9.9THz"
	data, err := b.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}

	slow := filepath.Join(dir, "slow.jsonl")
	writeLedger(t, slow, map[string][]float64{
		"x:join_seconds": {1.10, 1.11, 1.09, 1.12, 1.08},
	})
	code, out, _ := runCmd(t, "", "check", "-baseline", base, "-ledger", slow)
	if code != 0 {
		t.Fatalf("cross-machine latency regression should be advisory, exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "advisory regression: x:join_seconds") {
		t.Errorf("missing advisory line:\n%s", out)
	}
	// -strict-env turns it back into a blocker.
	code, _, _ = runCmd(t, "", "check", "-baseline", base, "-ledger", slow, "-strict-env")
	if code != 1 {
		t.Errorf("-strict-env exit = %d, want 1", code)
	}
}

func TestRecordAndDiff(t *testing.T) {
	dir := t.TempDir()
	oldL := filepath.Join(dir, "old.jsonl")
	newL := filepath.Join(dir, "new.jsonl")
	// 5 samples per arm: a 3v3 rank test structurally cannot reach
	// p < 0.05 (min two-sided p = 2/C(6,3) = 0.1), 5v5 can (2/252).
	for _, v := range []string{"1.00", "1.01", "0.99", "1.02", "0.98"} {
		code, _, errb := runCmd(t, "", "record", "-ledger", oldL, "-exp", "t",
			"-metric", "a:wall_seconds="+v, "-series", "recall_by_iteration=0.2,0.5,0.9")
		if code != 0 {
			t.Fatalf("record exit = %d: %s", code, errb)
		}
	}
	for _, v := range []string{"1.30", "1.31", "1.29", "1.32", "1.28"} {
		if code, _, errb := runCmd(t, "", "record", "-ledger", newL, "-exp", "t",
			"-metric", "a:wall_seconds="+v); code != 0 {
			t.Fatalf("record exit = %d: %s", code, errb)
		}
	}
	recs, err := runlog.ReadFile(oldL)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Tool != "mcperf" || len(recs[0].Series["recall_by_iteration"]) != 3 {
		t.Fatalf("recorded ledger = %+v", recs)
	}

	code, out, _ := runCmd(t, "", "diff", oldL, newL)
	if code != 0 {
		t.Fatalf("diff exit = %d", code)
	}
	if !strings.Contains(out, "a:wall_seconds") || !strings.Contains(out, "REGRESSION") {
		t.Errorf("diff output:\n%s", out)
	}

	// JSON mode parses and carries the delta.
	code, out, _ = runCmd(t, "", "diff", "-json", oldL, newL)
	if code != 0 {
		t.Fatalf("diff -json exit = %d", code)
	}
	var cs []perfstat.Comparison
	if err := json.Unmarshal([]byte(out), &cs); err != nil {
		t.Fatalf("diff -json: %v\n%s", err, out)
	}
	if len(cs) != 1 || !cs[0].Regression || cs[0].DeltaPct < 20 {
		t.Errorf("diff -json comparisons = %+v", cs)
	}
}

func TestRecordFromBench(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "bench.jsonl")
	benchOut := `goos: linux
goarch: amd64
BenchmarkJoin/M2-8     	      10	 123456789 ns/op	 4096 B/op	      12 allocs/op
BenchmarkJoin/M2-8     	      10	 124000000 ns/op	 4100 B/op	      12 allocs/op
BenchmarkTopK-8        	     100	   9876543 ns/op
PASS
`
	code, out, errb := runCmd(t, benchOut, "record", "-ledger", ledger, "-from-bench", "-exp", "microbench")
	if code != 0 {
		t.Fatalf("record -from-bench exit = %d: %s", code, errb)
	}
	if !strings.Contains(out, "recorded 3 record(s)") {
		t.Errorf("output: %s", out)
	}
	recs, err := runlog.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	s := runlog.Samples(recs)
	if len(s["bench/BenchmarkJoin/M2-8:time_ns"]) != 2 {
		t.Errorf("pooled bench samples = %v", s)
	}
	if vs := s["bench/BenchmarkJoin/M2-8:alloc_bytes"]; len(vs) != 2 || vs[0] < 4095 {
		t.Errorf("alloc samples = %v", vs)
	}
	if len(s["bench/BenchmarkTopK-8:time_ns"]) != 1 {
		t.Errorf("TopK samples = %v", s)
	}

	// Empty stdin is a usage error.
	if code, _, _ := runCmd(t, "PASS\n", "record", "-ledger", ledger, "-from-bench"); code != 2 {
		t.Errorf("empty bench input exit = %d, want 2", code)
	}
}

func TestReportFormatsAndUsage(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "runs.jsonl")
	writeLedger(t, ledger, map[string][]float64{
		"a:join_seconds": {1.0, 1.1, 0.9},
		"a:recall_f":     {12, 12, 12},
	})

	// JSON report is a valid, schema-tagged baseline with both metrics.
	code, out, _ := runCmd(t, "", "report", "-ledger", ledger, "-desc", "test baseline")
	if code != 0 {
		t.Fatalf("report exit = %d", code)
	}
	var base perfstat.Baseline
	if err := json.Unmarshal([]byte(out), &base); err != nil {
		t.Fatalf("report output is not a baseline: %v", err)
	}
	if base.Schema != perfstat.BaselineSchema || len(base.Metrics) != 2 || base.Description != "test baseline" {
		t.Errorf("baseline = %+v", base)
	}
	if base.Metrics["a:recall_f"].Direction != perfstat.HigherIsBetter.String() {
		t.Errorf("recall direction = %q", base.Metrics["a:recall_f"].Direction)
	}

	// Regeneration from the same ledger is byte-identical.
	_, out2, _ := runCmd(t, "", "report", "-ledger", ledger, "-desc", "test baseline")
	if out != out2 {
		t.Error("report is not deterministic over the same ledger")
	}

	// Markdown trend table.
	code, out, _ = runCmd(t, "", "report", "-ledger", ledger, "-format", "markdown")
	if code != 0 {
		t.Fatalf("markdown exit = %d", code)
	}
	for _, want := range []string{"# Performance trend", "a:join_seconds", "| metric | dir |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}

	// Usage errors all exit 2.
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"record", "-ledger", filepath.Join(dir, "x.jsonl")}, // nothing to record
		{"record"}, // no ledger
		{"diff", "only-one.jsonl"},
		{"check", "-ledger", ledger}, // no baseline
		{"report"},                   // no ledger
		{"report", "-ledger", ledger, "-format", "yaml"},
	} {
		if code, _, _ := runCmd(t, "", args...); code != 2 {
			t.Errorf("args %v exit = %d, want 2", args, code)
		}
	}
	if code, _, _ := runCmd(t, "", "help"); code != 0 {
		t.Error("help should exit 0")
	}
}

// benchLines renders one `go test -bench` result line per sample.
func benchLines(name string, nsPerOp ...float64) string {
	var sb strings.Builder
	for _, ns := range nsPerOp {
		sb.WriteString(name + "  \t     100\t  " + strconv.FormatFloat(ns, 'f', -1, 64) + " ns/op\t  64 B/op\t  2 allocs/op\n")
	}
	return sb.String()
}

// TestOverheadGate drives `mcperf overhead` through its verdicts: the
// k-th On sample pairs with the k-th Off sample, the median paired
// ratio is gated at 5%, and input with no complete pair exits 2.
func TestOverheadGate(t *testing.T) {
	off := []float64{1000, 1010, 990, 1005, 995, 1000}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(off))
		for i, v := range off {
			out[i] = v * f
		}
		return out
	}
	spiked := scaled(1.02)
	spiked[2] *= 1.5 // a load burst on one On rep
	cases := []struct {
		name  string
		input string
		code  int
		want  string
	}{
		{"plus3pct passes", benchLines("BenchmarkXOn", scaled(1.03)...) + benchLines("BenchmarkXOff", off...),
			0, "BenchmarkX: median paired on/off ratio over 6 invocation(s): overhead +3.0% (budget 5.0%) ok"},
		{"plus7pct fails", benchLines("BenchmarkXOn", scaled(1.07)...) + benchLines("BenchmarkXOff", off...),
			1, "overhead +7.0% (budget 5.0%) OVER BUDGET"},
		{"median absorbs a spike", benchLines("BenchmarkXOn", spiked...) + benchLines("BenchmarkXOff", off...),
			0, "overhead +2.0%"},
		{"procs suffix pairs", benchLines("BenchmarkXOn-8", scaled(1.01)...) + benchLines("BenchmarkXOff-8", off...),
			0, "BenchmarkX: median"},
		{"one pair over fails the gate", benchLines("BenchmarkAOn", scaled(1.01)...) + benchLines("BenchmarkAOff", off...) +
			benchLines("BenchmarkBOn", scaled(1.09)...) + benchLines("BenchmarkBOff", off...),
			1, "BenchmarkB: median paired on/off ratio over 6 invocation(s): overhead +9.0%"},
		{"missing Off arm", benchLines("BenchmarkXOn", off...), 2, ""},
		{"missing On arm", benchLines("BenchmarkXOff", off...), 2, ""},
		{"no pairs", benchLines("BenchmarkPlain", off...), 2, ""},
		{"no benchmark lines", "PASS\nok  \tpkg\t1.0s\n", 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCmd(t, tc.input, "overhead")
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, out, errb)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
