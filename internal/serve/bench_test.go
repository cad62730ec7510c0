package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"matchcatcher/internal/telemetry"
)

// Request-path overhead benchmarks: the same envelope with the flight
// recorder on (default) and off (FlightRecorderCap < 0). The pairs feed
// the module's one overhead gate (make overhead-check, baseline
// BENCH_overhead.json), which checks that wide-event recording stays
// inside the <5% overhead budget. /healthz is the measured route
// because it is all envelope and no handler: the worst-case ratio for
// observability overhead.

func benchServer(b *testing.B, opt Options) *Server {
	b.Helper()
	opt.Metrics = telemetry.New()
	s := New(opt)
	b.Cleanup(s.Close)
	return s
}

func benchRequests(b *testing.B, s *Server, method, path string) {
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(method, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d", w.Code)
		}
	}
}

func BenchmarkServeRequestRecorderOn(b *testing.B) {
	s := benchServer(b, Options{})
	benchRequests(b, s, "GET", "/healthz")
}

func BenchmarkServeRequestRecorderOff(b *testing.B) {
	s := benchServer(b, Options{FlightRecorderCap: -1})
	benchRequests(b, s, "GET", "/healthz")
}

// BenchmarkServeSessionRequestRecorderOn measures the session-route
// envelope (acquire/release, span open/close, wide-event annotation) on
// a resident session — the path real API traffic takes.
func BenchmarkServeSessionRequestRecorderOn(b *testing.B) {
	s := benchServer(b, Options{})
	sess, err := s.admit(sessionConfig{Seed: 1, K: 10, N: 3})
	if err != nil {
		b.Fatal(err)
	}
	benchRequests(b, s, "GET", "/v1/sessions/"+sess.id)
}

func BenchmarkServeSessionRequestRecorderOff(b *testing.B) {
	s := benchServer(b, Options{FlightRecorderCap: -1})
	sess, err := s.admit(sessionConfig{Seed: 1, K: 10, N: 3})
	if err != nil {
		b.Fatal(err)
	}
	benchRequests(b, s, "GET", "/v1/sessions/"+sess.id)
}
