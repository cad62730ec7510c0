package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"matchcatcher/internal/serve"
	"matchcatcher/internal/telemetry"
)

func TestParseProm(t *testing.T) {
	const text = `# HELP mc_serve_requests_total HTTP requests served.
# TYPE mc_serve_requests_total counter
mc_serve_requests_total{code="200",route="join"} 3
mc_serve_requests_total{code="404",route="session_get"} 1
# TYPE mc_serve_sessions_live gauge
mc_serve_sessions_live 2
# TYPE mc_serve_request_seconds histogram
mc_serve_request_seconds_bucket{code="200",route="join",le="0.001"} 2
mc_serve_request_seconds_bucket{code="200",route="join",le="+Inf"} 3
mc_serve_request_seconds_sum{code="200",route="join"} 0.5
mc_serve_request_seconds_count{code="200",route="join"} 3
mc_y_queue_depth{path="a\"b\\c\nd"} 4
`
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(m["mc_serve_requests_total"]) != 2 {
		t.Errorf("requests_total samples = %d, want 2", len(m["mc_serve_requests_total"]))
	}
	if got := m["mc_serve_sessions_live"][0].value; got != 2 {
		t.Errorf("sessions_live = %v", got)
	}
	var sawInf bool
	for _, s := range m["mc_serve_request_seconds_bucket"] {
		if s.labels["le"] == "+Inf" {
			sawInf = true
		}
	}
	if !sawInf {
		t.Error("+Inf bucket lost")
	}
	// Escaped label values round-trip.
	if got := m["mc_y_queue_depth"][0].labels["path"]; got != "a\"b\\c\nd" {
		t.Errorf("escaped label = %q", got)
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	buckets := []bucket{
		{le: 0.001, cum: 50},
		{le: 0.01, cum: 90},
		{le: 0.1, cum: 99},
		{le: math.Inf(1), cum: 100},
	}
	if got := quantileFromBuckets(buckets, 0.50); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := quantileFromBuckets(buckets, 0.99); got != 0.1 {
		t.Errorf("p99 = %v, want 0.1", got)
	}
	// The +Inf crossing reports the highest finite bound.
	if got := quantileFromBuckets(buckets, 1.0); got != 0.1 {
		t.Errorf("p100 = %v, want 0.1", got)
	}
	if got := quantileFromBuckets(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestRouteStatsAggregatesCodes(t *testing.T) {
	m := promText{
		"mc_serve_requests_total": {
			{labels: map[string]string{"route": "join", "code": "200"}, value: 3},
			{labels: map[string]string{"route": "join", "code": "409"}, value: 2},
		},
		"mc_serve_request_seconds_bucket": {
			{labels: map[string]string{"route": "join", "code": "200", "le": "0.001"}, value: 3},
			{labels: map[string]string{"route": "join", "code": "200", "le": "+Inf"}, value: 3},
			{labels: map[string]string{"route": "join", "code": "409", "le": "0.001"}, value: 1},
			{labels: map[string]string{"route": "join", "code": "409", "le": "+Inf"}, value: 2},
		},
	}
	stats := routeStats(m)
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	st := stats[0]
	if st.route != "join" || st.requests != 5 || st.errors != 2 {
		t.Errorf("aggregate = %+v", st)
	}
	if st.p50 != 0.001 {
		t.Errorf("merged p50 = %v", st.p50)
	}
}

// TestOnceAgainstLiveServer drives mctop -once against a real serve
// instance: the end-to-end check that the dashboard can parse what the
// server actually emits.
func TestOnceAgainstLiveServer(t *testing.T) {
	s := serve.New(serve.Options{
		Metrics:     telemetry.New(),
		SlowRequest: time.Nanosecond, // every request trips the watchdog
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Create a session and provoke a 404 so every dashboard section has
	// content.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var out bytes.Buffer
	if rc := mainE(&out, []string{"-once", "-addr", ts.URL}); rc != 0 {
		t.Fatalf("mctop -once rc = %d\n%s", rc, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"sessions  live 1",
		"sessions_create",
		"runtime",
		"p99",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("frame lacks %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "recent slow/errored requests") {
		t.Errorf("frame lacks the recent-events section:\n%s", text)
	}
	if !strings.Contains(text, "error=") {
		t.Errorf("frame lacks the 404's error message:\n%s", text)
	}
}

// TestRunningJoinsPane feeds gatherJoins a fake in-flight table and a
// stub progress endpoint, and checks the pane renders one line per
// distinct joining session, its "pruned" total summing all five prune
// tiers (40+9+3+12+7), as mcdebug -progress does.
func TestRunningJoinsPane(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions/s000001/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{
			"session": "s000001", "state": "blocked", "joining": true,
			"join": {
				"elapsed_seconds": 1.5, "configs_total": 7, "configs_done": 3,
				"probes_done": 750, "probes_total": 1500,
				"prune_kill_push_cap": 40, "prune_kill_loop_break": 9, "prune_kill_flush_bound": 3,
				"prune_kill_length_filter": 12, "prune_kill_prefix_pos": 7,
				"fraction": 0.5, "eta_seconds": 1.5, "done": false, "cancelled": false
			}
		}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	inflight := []telemetry.FlightEvent{
		{Route: "join", Session: "s000001"},
		{Route: "join", Session: "s000001"}, // duplicate folds away
		{Route: "next", Session: "s000002"}, // not a join
		{Route: "join", Session: "s000404"}, // endpoint errors drop the entry
	}
	joins := gatherJoins(http.DefaultClient, ts.URL, inflight)
	if len(joins) != 1 || joins[0].Session != "s000001" {
		t.Fatalf("gatherJoins = %+v", joins)
	}
	if j := joins[0].Join; j.Fraction != 0.5 || j.PushCap != 40 {
		t.Errorf("decoded join = %+v", j)
	}

	var out bytes.Buffer
	f := &frame{at: time.Now(), joins: joins}
	f.render(&out, nil)
	text := out.String()
	for _, want := range []string{"running joins (1)", "s000001", "50.0%", "configs 3/7", "pruned 71", "eta"} {
		if !strings.Contains(text, want) {
			t.Errorf("pane lacks %q:\n%s", want, text)
		}
	}
}

func TestOnceAgainstDeadServer(t *testing.T) {
	var out bytes.Buffer
	if rc := mainE(&out, []string{"-once", "-addr", "http://127.0.0.1:1"}); rc != 1 {
		t.Errorf("dead server rc = %d, want 1", rc)
	}
}
