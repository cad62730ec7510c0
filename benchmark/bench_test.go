package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"matchcatcher/internal/datagen"
	"matchcatcher/internal/telemetry"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{n: 99, p: 0.90, want: 90, report: false}, // 9 samples above
		{n: 100, p: 0.90, want: 90, report: true}, // 10 samples above
		{n: 999, p: 0.99, want: 990, report: false},
		{n: 1000, p: 0.99, want: 990, report: true},
		{n: 1, p: 0.90, want: 1, report: false},
	} {
		got, ok := tail(series(tc.n), tc.p)
		if got != tc.want || ok != tc.report {
			t.Errorf("tail(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.report)
		}
	}
	d := summarize(series(12))
	if d.N != 12 || d.P50 != 6.5 || d.HasP90 || d.HasP99 {
		t.Errorf("summarize(1..12) = %+v; want n=12, median 6.5 and no tails", d)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) gives [2.75, 5.5, 8.25] for 1..10,
	// [1.0, 2.0, 3.0] for 1, 2, 3 and [0.5, 2.0, 3.5] for 1, 3.
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 3}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(tc.in); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{10, 10, 10}); s != 0 {
		t.Errorf("spread of equal samples = %g", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	span := func(id, parent uint64, name string, start, dur int64) telemetry.ExportedSpan {
		return telemetry.ExportedSpan{ID: id, ParentID: parent, TraceID: 1, Name: name, StartMicros: start, DurMicros: dur}
	}
	// root [0,100): blocking steps config [0,10) and ssjoin.joinall
	// [10,90); two workers run ssjoin.config spans [15,60) and [30,85)
	// side by side, and the first has a tokenize child [15,20). The
	// harness owns [90,100).
	trees := sessionTrees([]telemetry.ExportedSpan{
		span(1, 0, "session", 0, 100),
		span(2, 1, "config.generate", 0, 10),
		span(3, 1, "ssjoin.joinall", 10, 80),
		span(4, 3, "ssjoin.config", 15, 45),
		span(5, 3, "ssjoin.config", 30, 55),
		span(6, 4, "ssjoin.tokenize", 15, 5),
	})
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	root := trees[0]
	if root.self != 10 {
		t.Errorf("root self = %d, want 10", root.self)
	}
	join := root.children[1]
	// The children cover [15,85) = 70 of joinall's 80, not 45+55 = 100.
	if join.self != 10 {
		t.Errorf("joinall self = %d, want 10 (union of overlapping children)", join.self)
	}
	f := fold(root)
	if got := f.layers["ssjoin"]; got.blocking != 80 || got.busy != 80 || got.self != 10+40+55+5 {
		t.Errorf("ssjoin layer = %+v; want blocking 80, busy 80, self 110", *got)
	}
	if h := f.layers["harness"].blocking; h != 10 || math.Abs(f.accounted()-0.9) > 1e-12 {
		t.Errorf("harness %d, accounted %g; want 10 and 0.9", h, f.accounted())
	}
	// A child sticking out of its parent only counts where it overlaps.
	clipped := sessionTrees([]telemetry.ExportedSpan{span(1, 0, "session", 0, 10), span(2, 1, "ranker.next", 5, 20)})
	if clipped[0].self != 5 {
		t.Errorf("self with a clipped child = %d, want 5", clipped[0].self)
	}
}

// toy shrinks a workload to the toy scale, F-Z x0.2, keeping its front
// and concurrency. Workloads on other schemas take F-Z's hash rule.
func toy(w workload) workload {
	w.profile, w.scale, w.sessions = datagen.FodorsZagats(), 0.2, 4
	if !w.serve {
		w.rules = []rule{{label: "HASH", keeps: []string{"attr_equal_city"}}}
	}
	return w
}

func TestDigestIgnoresWorkerCountAndTracing(t *testing.T) {
	e, err := newEnv(toy(workloads[0]), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, workers := range []int{1, 2} {
		e.joinWorkers = workers
		for _, tr := range []*telemetry.Tracer{nil, telemetry.NewTracer(nil)} {
			r := e.inProcess(0, tr, false)
			if r.failed != 0 || r.digest != e.ref[0] {
				t.Errorf("workers=%d traced=%v: digest %.12s (failed %d), reference %.12s", workers, tr != nil, r.digest, r.failed, e.ref[0])
			}
		}
	}
}

func TestSmokeEveryWorkloadAtToyScale(t *testing.T) {
	for _, w := range workloads {
		w := toy(w)
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				res, err := runWorkload(w, runConfig{seed: 2, trace: trace, traceOut: t.TempDir()}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
					}
				}
			}
		})
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{name: "session_s.p50", better: "lower", bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{1.03, 1.04, 1.02, 1.03, 1.05}, "within bound"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{[]float64{0.80, 0.81, 0.79, 0.80, 0.82}, "better"},
		{[]float64{0.5, 1.5, 1.0, 0.7, 1.4}, "unresolved"},
	} {
		if got := judge(lat, base, tc.b); got != tc.want {
			t.Errorf("judge(%v) = %q, want %q", tc.b, got, tc.want)
		}
	}
	rate := metricDef{name: "sessions_per_s", better: "higher", bound: 0.10}
	if got := judge(rate, base, []float64{1.20, 1.21, 1.19, 1.20, 1.22}); got != "better" {
		t.Errorf("higher-is-better judge = %q, want better", got)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json, which
// describes this benchmark to tools that run it, equal to the tables here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, benchmark %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}
