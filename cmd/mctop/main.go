// Command mctop is a terminal dashboard for a running mcserve: it polls
// /metrics and /debug/flightrecord and renders the server's operational
// state in place — live sessions, admission/eviction counters, per-route
// request rates and latency quantiles, current runtime health, and the
// most recent slow or errored requests from the flight ring.
//
//	mctop -addr http://localhost:8642
//
// The dashboard redraws every -interval. -once renders a single frame
// to stdout and exits (scripts, tests). Everything is computed from the
// two public endpoints — mctop needs no access to the server process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"matchcatcher/internal/telemetry"
)

func main() {
	os.Exit(mainE(os.Stdout, os.Args[1:]))
}

func mainE(stdout io.Writer, args []string) int {
	fs := flag.NewFlagSet("mctop", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8642", "mcserve base URL")
	interval := fs.Duration("interval", 2*time.Second, "poll and redraw interval")
	once := fs.Bool("once", false, "render one frame and exit")
	events := fs.Int("n", 8, "recent slow/errored requests to show")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		// Accept the bare host:port people paste from mcserve -addr.
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}

	var prev *frame
	for {
		f, err := gather(client, base, *events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mctop: %v\n", err)
			if *once {
				return 1
			}
		} else {
			if !*once {
				fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear + home
			}
			f.render(stdout, prev)
			prev = f
		}
		if *once {
			return 0
		}
		time.Sleep(*interval)
	}
}

// sample is one parsed exposition sample.
type sample struct {
	labels map[string]string
	value  float64
}

// promText is a parsed /metrics payload: samples grouped by metric name
// (histogram component suffixes _bucket/_sum/_count keep their full
// name, matching the text format).
type promText map[string][]sample

// parseProm parses the Prometheus text exposition format (the subset
// the telemetry registry emits: counters, gauges, histograms).
func parseProm(r io.Reader) (promText, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := promText{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("mctop: parse %q: %w", line, err)
		}
		out[name] = append(out[name], sample{labels: labels, value: value})
	}
	return out, nil
}

// parseSample splits `name{k="v",...} value` (labels optional).
func parseSample(line string) (string, map[string]string, float64, error) {
	var name, rest string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		rest = line[i:]
	} else {
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("no value")
		}
		name = line[:sp]
		rest = line[sp:]
	}
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		body, tail, err := splitLabelBlock(rest)
		if err != nil {
			return "", nil, 0, err
		}
		labels, err = parseLabels(body)
		if err != nil {
			return "", nil, 0, err
		}
		rest = tail
	}
	var v float64
	if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &v); err != nil {
		if strings.TrimSpace(rest) == "+Inf" {
			v = math.Inf(1)
		} else {
			return "", nil, 0, fmt.Errorf("bad value %q", rest)
		}
	}
	return name, labels, v, nil
}

// splitLabelBlock returns the {...} body and the remainder, respecting
// quoted label values (which may contain escaped quotes and braces).
func splitLabelBlock(s string) (string, string, error) {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip the escaped byte
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return s[1:i], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label block")
}

// parseLabels parses `k="v",k2="v2"`.
func parseLabels(body string) (map[string]string, error) {
	out := map[string]string{}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return nil, fmt.Errorf("bad label pair in %q", body)
		}
		key := body[:eq]
		var sb strings.Builder
		i := eq + 2
		for ; i < len(body); i++ {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(body[i])
				}
				continue
			}
			if body[i] == '"' {
				break
			}
			sb.WriteByte(body[i])
		}
		if i >= len(body) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		out[key] = sb.String()
		body = body[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return out, nil
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le  float64
	cum float64
}

// quantileFromBuckets estimates quantile q as the upper bound of the
// bucket where the cumulative count crosses q*total — the same
// bucket-bound estimate the server's own snapshots use. A +Inf crossing
// reports the highest finite bound.
func quantileFromBuckets(buckets []bucket, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0
	}
	target := math.Ceil(q * total)
	if target < 1 {
		target = 1
	}
	lastFinite := 0.0
	for _, b := range buckets {
		if !math.IsInf(b.le, 1) {
			lastFinite = b.le
		}
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return lastFinite
			}
			return b.le
		}
	}
	return lastFinite
}

// joinProgress is the subset of the progress endpoint's wire shape the
// running-joins pane renders. mctop decodes it structurally (no import
// of internal/serve or internal/ssjoin) because it talks only to the
// public API, like any other client.
type joinProgress struct {
	Session string `json:"session"`
	State   string `json:"state"`
	Joining bool   `json:"joining"`
	Join    struct {
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		ConfigsTotal   int64   `json:"configs_total"`
		ConfigsDone    int64   `json:"configs_done"`
		ProbesDone     int64   `json:"probes_done"`
		ProbesSkipped  int64   `json:"probes_skipped"`
		ProbesTotal    int64   `json:"probes_total"`
		PushCap        int64   `json:"prune_kill_push_cap"`
		LoopBreak      int64   `json:"prune_kill_loop_break"`
		FlushBound     int64   `json:"prune_kill_flush_bound"`
		LengthFilter   int64   `json:"prune_kill_length_filter"`
		PrefixPos      int64   `json:"prune_kill_prefix_pos"`
		Fraction       float64 `json:"fraction"`
		ETASeconds     float64 `json:"eta_seconds"`
		Done           bool    `json:"done"`
		Cancelled      bool    `json:"cancelled"`
		Skew           struct {
			Shards         int     `json:"shards"`
			ImbalanceRatio float64 `json:"imbalance_ratio"`
		} `json:"skew"`
	} `json:"join"`
}

// gatherJoins polls the progress endpoint for every session with a join
// request currently in flight (per the flight dump's in-flight table)
// and returns the live snapshots, session order. Endpoint errors drop
// the entry — the pane is best-effort decoration over the dump.
func gatherJoins(client *http.Client, base string, inflight []telemetry.FlightEvent) []joinProgress {
	seen := map[string]bool{}
	var out []joinProgress
	for _, ev := range inflight {
		if ev.Route != "join" || ev.Session == "" || seen[ev.Session] {
			continue
		}
		seen[ev.Session] = true
		resp, err := client.Get(base + "/v1/sessions/" + ev.Session + "/progress")
		if err != nil {
			continue
		}
		var jp joinProgress
		derr := json.NewDecoder(resp.Body).Decode(&jp)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		out = append(out, jp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// routeStat aggregates one route's request series across status codes.
type routeStat struct {
	route    string
	requests float64
	errors   float64 // status >= 400
	p50, p99 float64
}

// frame is one gathered dashboard state.
type frame struct {
	at       time.Time
	metrics  promText
	routes   []routeStat
	recent   []telemetry.FlightEvent // most recent slow/errored events, newest first
	inflight []telemetry.FlightEvent
	joins    []joinProgress // live snapshots of in-flight joins
	dump     *telemetry.FlightDump
}

// gauge returns the (first) sample value of an unlabeled series.
func (f *frame) gauge(name string) float64 {
	for _, s := range f.metrics[name] {
		if len(s.labels) == 0 {
			return s.value
		}
	}
	return 0
}

// counterSum sums a counter's samples, optionally filtered by label.
func (f *frame) counterSum(name string, filter func(map[string]string) bool) float64 {
	var sum float64
	for _, s := range f.metrics[name] {
		if filter == nil || filter(s.labels) {
			sum += s.value
		}
	}
	return sum
}

func gather(client *http.Client, base string, recentN int) (*frame, error) {
	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", mresp.Status)
	}
	metrics, err := parseProm(mresp.Body)
	if err != nil {
		return nil, err
	}

	f := &frame{at: time.Now(), metrics: metrics}

	fresp, err := client.Get(base + "/debug/flightrecord")
	if err != nil {
		return nil, err
	}
	defer fresp.Body.Close()
	if fresp.StatusCode == http.StatusOK {
		if d, derr := telemetry.ReadFlightDump(fresp.Body); derr == nil {
			f.dump = d
			f.inflight = d.Inflight
			for i := len(d.Events) - 1; i >= 0 && len(f.recent) < recentN; i-- {
				ev := d.Events[i]
				if ev.Kind == "request" && (ev.Slow || ev.Status >= 400) {
					f.recent = append(f.recent, ev)
				}
			}
		}
	}

	f.joins = gatherJoins(client, base, f.inflight)
	f.routes = routeStats(metrics)
	return f, nil
}

// routeStats builds per-route request counts and latency quantiles from
// the mc_serve_requests_total and mc_serve_request_seconds series,
// aggregating across status codes.
func routeStats(metrics promText) []routeStat {
	byRoute := map[string]*routeStat{}
	get := func(route string) *routeStat {
		st, ok := byRoute[route]
		if !ok {
			st = &routeStat{route: route}
			byRoute[route] = st
		}
		return st
	}
	for _, s := range metrics["mc_serve_requests_total"] {
		st := get(s.labels["route"])
		st.requests += s.value
		if c := s.labels["code"]; len(c) > 0 && c[0] >= '4' {
			st.errors += s.value
		}
	}
	// Merge buckets across code labels per route.
	routeBuckets := map[string]map[float64]float64{}
	for _, s := range metrics["mc_serve_request_seconds_bucket"] {
		route := s.labels["route"]
		le := math.Inf(1)
		if s.labels["le"] != "+Inf" {
			if _, err := fmt.Sscanf(s.labels["le"], "%g", &le); err != nil {
				continue
			}
		}
		if routeBuckets[route] == nil {
			routeBuckets[route] = map[float64]float64{}
		}
		routeBuckets[route][le] += s.value
	}
	for route, bm := range routeBuckets {
		les := make([]float64, 0, len(bm))
		for le := range bm {
			les = append(les, le)
		}
		sort.Float64s(les)
		buckets := make([]bucket, 0, len(les))
		for _, le := range les {
			buckets = append(buckets, bucket{le: le, cum: bm[le]})
		}
		st := get(route)
		st.p50 = quantileFromBuckets(buckets, 0.50)
		st.p99 = quantileFromBuckets(buckets, 0.99)
	}
	routes := make([]string, 0, len(byRoute))
	for route := range byRoute {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	out := make([]routeStat, 0, len(routes))
	for _, route := range routes {
		out = append(out, *byRoute[route])
	}
	return out
}

func fmtDur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	}
	return fmt.Sprintf("%.0fB", v)
}

// render writes one dashboard frame. prev, when non-nil, supplies the
// previous poll's counters so rates render as deltas per second.
func (f *frame) render(w io.Writer, prev *frame) {
	fmt.Fprintf(w, "mcserve @ %s\n\n", f.at.Format(time.TimeOnly))

	rate := func(name string) string {
		cur := f.counterSum(name, nil)
		if prev == nil {
			return fmt.Sprintf("%.0f total", cur)
		}
		dt := f.at.Sub(prev.at).Seconds()
		if dt <= 0 {
			return fmt.Sprintf("%.0f total", cur)
		}
		return fmt.Sprintf("%.1f/s", (cur-prev.counterSum(name, nil))/dt)
	}

	fmt.Fprintf(w, "sessions  live %.0f  created %s  evicted %s  429 %s  413 %s\n",
		f.gauge("mc_serve_sessions_live"),
		rate("mc_serve_sessions_created_total"),
		rate("mc_serve_sessions_evicted_total"),
		rate("mc_serve_admission_rejected_total"),
		rate("mc_serve_budget_rejected_total"))
	fmt.Fprintf(w, "runtime   goroutines %.0f  heap %s  gc_p99 %s  sched_p99 %s\n\n",
		f.gauge("mc_runtime_goroutines"),
		fmtBytes(f.gauge("mc_runtime_heap_live_bytes")),
		fmtDur(f.gauge("mc_runtime_gc_pause_p99_seconds")),
		fmtDur(f.gauge("mc_runtime_sched_latency_p99_seconds")))

	fmt.Fprintf(w, "%-16s %10s %8s %12s %12s\n", "route", "requests", "errors", "p50", "p99")
	for _, st := range f.routes {
		fmt.Fprintf(w, "%-16s %10.0f %8.0f %12s %12s\n",
			st.route, st.requests, st.errors, fmtDur(st.p50), fmtDur(st.p99))
	}

	if len(f.inflight) > 0 {
		fmt.Fprintf(w, "\nin flight (%d):\n", len(f.inflight))
		for _, ev := range f.inflight {
			fmt.Fprintf(w, "  %-16s %-8s session=%s\n", ev.Route, ev.Method, ev.Session)
		}
	}
	if len(f.joins) > 0 {
		fmt.Fprintf(w, "\nrunning joins (%d):\n", len(f.joins))
		for _, jp := range f.joins {
			j := jp.Join
			line := fmt.Sprintf("  %-8s %5.1f%%  configs %d/%d  probes %.2g/%.2g  pruned %.2g",
				jp.Session, j.Fraction*100, j.ConfigsDone, j.ConfigsTotal,
				float64(j.ProbesDone+j.ProbesSkipped), float64(j.ProbesTotal),
				float64(j.PushCap+j.LoopBreak+j.FlushBound+j.LengthFilter+j.PrefixPos))
			if j.Skew.Shards > 1 {
				line += fmt.Sprintf("  shards %d imb %.2f", j.Skew.Shards, j.Skew.ImbalanceRatio)
			}
			if !j.Done && j.ETASeconds >= 0 {
				line += fmt.Sprintf("  eta %s", fmtDur(j.ETASeconds))
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(f.recent) > 0 {
		fmt.Fprintf(w, "\nrecent slow/errored requests:\n")
		for _, ev := range f.recent {
			mark := ""
			if ev.Slow {
				mark = " SLOW"
			}
			line := fmt.Sprintf("  %s %-16s %3d  %10s%s",
				time.Unix(0, ev.Time).Format(time.TimeOnly), ev.Route, ev.Status,
				time.Duration(ev.DurMicros)*time.Microsecond, mark)
			if ev.Session != "" {
				line += "  session=" + ev.Session
			}
			if ev.Err != "" {
				line += "  error=" + ev.Err
			}
			fmt.Fprintln(w, line)
		}
	}
	if f.dump != nil && f.dump.Dropped > 0 {
		fmt.Fprintf(w, "\n(flight ring dropped %d older events)\n", f.dump.Dropped)
	}
}
