package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := New()
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve inside the goroutine: exercises the striped lookup.
			c := r.Counter("mc_test_ops_total", L("worker", "shared"))
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("mc_test_ops_total", L("worker", "shared")).Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterAddNegativeIgnored(t *testing.T) {
	r := New()
	c := r.Counter("mc_test_neg_total")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5 (negative adds ignored)", c.Value())
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := New()
	g := r.Gauge("mc_test_level")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); math.Abs(got-4000) > 1e-6 {
		t.Errorf("gauge = %v, want 4000", got)
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Errorf("gauge after Set = %v", g.Value())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram("mc_test_latency_seconds")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(i+1) * 1e-4)
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	wantSum := 0.0
	for i := 1; i <= 8; i++ {
		wantSum += float64(i) * 1e-4 * 1000
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(1e-6, 2, 30)
	// Exact bounds land in their own bucket; just-above lands one up.
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{1e-6, 0},
		{2e-6, 1},
		{2.1e-6, 2},
		{1e9, 30}, // overflow
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in a bucket whose bound covers it.
	for v := 1e-6; v < 100; v *= 1.37 {
		i := h.bucketIndex(v)
		if ub := h.UpperBound(i); ub < v {
			t.Errorf("value %v put in bucket %d with bound %v < value", v, i, ub)
		}
		if i > 0 {
			if lb := h.UpperBound(i - 1); lb >= v {
				t.Errorf("value %v put in bucket %d but bound %v of bucket %d already covers it", v, i, lb, i-1)
			}
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram(1e-6, 2, 30)
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty quantile = %v", h.Quantile(0.5))
	}
	for i := 0; i < 90; i++ {
		h.Observe(1e-4) // bucket bound 1.28e-4
	}
	for i := 0; i < 10; i++ {
		h.Observe(1e-2) // bucket bound ~1.6e-2
	}
	if q := h.Quantile(0.5); q < 1e-4 || q > 2.56e-4 {
		t.Errorf("p50 = %v, want ~1.28e-4", q)
	}
	if q := h.Quantile(0.99); q < 1e-2 {
		t.Errorf("p99 = %v, want >= 1e-2", q)
	}
}

func TestExpositionGolden(t *testing.T) {
	r := New()
	r.Counter("mc_test_pairs_total", L("config", "root")).Add(42)
	r.Counter("mc_test_pairs_total", L("config", "child")).Add(7)
	r.Gauge("mc_test_e_size").Set(123)
	h := r.Histogram("mc_test_join_seconds")
	h.Observe(1.5e-6) // bucket le=2e-06
	h.Observe(1.5e-6)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE mc_test_e_size gauge
mc_test_e_size 123
# TYPE mc_test_join_seconds histogram
mc_test_join_seconds_bucket{le="2e-06"} 2
mc_test_join_seconds_bucket{le="+Inf"} 2
mc_test_join_seconds_sum 3e-06
mc_test_join_seconds_count 2
# TYPE mc_test_pairs_total counter
mc_test_pairs_total{config="child"} 7
mc_test_pairs_total{config="root"} 42
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelSortingAndEscaping(t *testing.T) {
	r := New()
	// Labels resolve to the same series regardless of argument order.
	a := r.Counter("mc_test_l_total", L("b", "2"), L("a", "1"))
	b := r.Counter("mc_test_l_total", L("a", "1"), L("b", "2"))
	if a != b {
		t.Error("label order created two series")
	}
	r.Counter("mc_test_esc_total", L("v", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `v="a\"b\\c\nd"`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("mc_test_kind")
	defer func() {
		if recover() == nil {
			t.Error("want panic on kind mismatch")
		}
	}()
	r.Gauge("mc_test_kind")
}

func TestNilAndDisabled(t *testing.T) {
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z").Observe(1)
	nilReg.Reset()
	if s := nilReg.Snapshot(); s.NumSeries() != 0 {
		t.Errorf("nil registry snapshot has %d series", s.NumSeries())
	}
	d := Disabled()
	d.Counter("x").Inc()
	if s := d.Snapshot(); s.NumSeries() != 0 {
		t.Errorf("disabled registry snapshot has %d series", s.NumSeries())
	}
	if got := Or(nil); got != Default() {
		t.Error("Or(nil) != Default()")
	}
	if got := Or(d); got != d {
		t.Error("Or(d) != d")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Counter("mc_test_a_total").Add(3)
	r.Gauge("mc_test_b", L("x", "1")).Set(2.5)
	r.Histogram("mc_test_c_seconds").Observe(0.25)
	snap := r.Snapshot()
	if snap.NumSeries() != 3 {
		t.Fatalf("snapshot series = %d, want 3", snap.NumSeries())
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["mc_test_a_total"] != 3 {
		t.Errorf("counter round-trip = %v", back.Counters)
	}
	if back.Gauges[`mc_test_b{x="1"}`] != 2.5 {
		t.Errorf("gauge round-trip = %v", back.Gauges)
	}
	hs := back.Histograms["mc_test_c_seconds"]
	if hs.Count != 1 || hs.Sum != 0.25 || hs.Mean != 0.25 {
		t.Errorf("histogram round-trip = %+v", hs)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := New()
	r.Counter("mc_test_served_total").Inc()
	srv, addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "mc_test_served_total 1") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if code, body = get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars: code=%d", code)
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
}

// TestServeShutdownReleasesPort: graceful Shutdown must finish in-flight
// scrapes and release the listener so the address can be rebound — the
// property mcdebug's -metrics-addr cleanup (and any embedding process's
// exit path) relies on to not leak the socket.
func TestServeShutdownReleasesPort(t *testing.T) {
	r := New()
	srv, addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A completed scrape guarantees the serving goroutine has registered
	// the listener, so Shutdown will close it.
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	srv2, _, err := r.Serve(addr.String())
	if err != nil {
		t.Fatalf("rebinding %s after Shutdown: %v", addr, err)
	}
	srv2.Close()
}

func TestReset(t *testing.T) {
	r := New()
	r.Counter("mc_test_r_total").Inc()
	r.Reset()
	if s := r.Snapshot(); s.NumSeries() != 0 {
		t.Errorf("after Reset: %d series", s.NumSeries())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("mc_bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("mc_bench_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.23e-4)
	}
}

func BenchmarkRegistryLookup(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("mc_bench_lookup_total", L("config", "root"))
	}
}
