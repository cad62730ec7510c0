// Package serve hosts many concurrent MatchCatcher debugging sessions
// behind an HTTP/JSON API — the long-lived, multi-tenant counterpart to
// mcdebug's one-shot CLI loop.
//
// Each session owns the state one mcdebug invocation owns: two tables, a
// blocker, the blocker's candidate-set output C, and (after the join) a
// core.Debugger driving the paper's interactive verification loop. The
// server adds the production envelope around that per-session core: a
// bounded session table with LRU idle eviction, per-session upload
// budgets with 413/429 backpressure, request deadlines threaded into the
// joins as context cancellation, graceful drain on shutdown, and
// /healthz + /readyz probes.
//
// Isolation model: every session gets a private telemetry registry,
// tracer (rooted at a serve.session span that all request spans hang
// under), and provenance recorder, so tenants never share mutable
// telemetry state. Blocking passes the session's span and recorder to
// blocker.Run explicitly, so tenants block in parallel with no shared
// lock. Server-level mc_serve_* metrics live on a
// separate server registry. Determinism survives the transport: a
// scripted HTTP session produces a canonical report byte-identical to
// the CLI's for the same tables, rules, seed, and join options.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"matchcatcher/internal/telemetry"
)

// Options configures the server.
type Options struct {
	// MaxSessions bounds the live session table (default 16). Creating a
	// session at the bound evicts the least-recently-used idle session;
	// if every session has a request in flight the create is rejected
	// with 429 (admission control, not queueing: the client owns retry).
	MaxSessions int
	// SessionMemBudget caps the bytes of table CSV a session may upload
	// (default 64 MiB). Uploads that would exceed it get 413.
	SessionMemBudget int64
	// IdleTimeout evicts sessions with no request activity for this long
	// (default 15m; <= 0 disables idle eviction, LRU eviction at
	// MaxSessions still applies).
	IdleTimeout time.Duration
	// RequestTimeout is the per-request deadline for /v1 routes (default
	// 60s). It is threaded into the join as context cancellation, so a
	// deadline or client disconnect aborts an in-flight join promptly.
	RequestTimeout time.Duration
	// LedgerPath, when set, appends one runlog record per completed
	// session (finished, deleted, evicted, or drained at shutdown).
	LedgerPath string
	// Metrics receives the server's mc_serve_* series (nil selects
	// telemetry.Default()). Per-session pipeline telemetry lives on each
	// session's private registry, not here.
	Metrics *telemetry.Registry
	// Logger receives request and lifecycle logs (nil discards them).
	Logger *slog.Logger
	// FlightRecorderCap sizes the flight ring of recent wide events
	// (0 selects telemetry.DefaultFlightCapacity; < 0 disables the
	// recorder entirely — the canonical log lines still flow).
	FlightRecorderCap int
	// SlowRequest is the watchdog threshold: requests slower than this
	// enter the flight ring with their full span tree attached (0
	// selects 1s; < 0 disables the watchdog).
	SlowRequest time.Duration
	// FlightDumpPath, when set, receives an automatic flight-record dump
	// when shutdown drain begins and again after Close, so the evidence
	// survives the process.
	FlightDumpPath string
	// ProgressInterval is the frame cadence of the SSE progress stream on
	// GET /v1/sessions/{id}/progress (default 250ms). Frames are built
	// from the join tracker's lock-free snapshot, so a short interval
	// costs the server, not the join.
	ProgressInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16
	}
	if o.SessionMemBudget <= 0 {
		o.SessionMemBudget = 64 << 20
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 15 * time.Minute
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.SlowRequest == 0 {
		o.SlowRequest = time.Second
	}
	if o.ProgressInterval <= 0 {
		o.ProgressInterval = 250 * time.Millisecond
	}
	return o
}

// Server hosts debugging sessions. Create one with New, mount Handler on
// an http.Server, and tear down with BeginShutdown (stop admitting, flip
// /readyz) → http.Server.Shutdown (drain in-flight requests, joins
// included) → Close (finish surviving sessions and flush their ledger
// records).
type Server struct {
	opt Options
	reg *telemetry.Registry
	log *slog.Logger
	mux *http.ServeMux

	// flight is the black-box recorder of recent wide events (nil when
	// disabled; every call site is nil-safe). inflightReqs tracks
	// requests currently executing for the dump's in-flight section.
	flight       *telemetry.FlightRecorder
	inflightReqs inflightTable

	mu       sync.Mutex //mc:lockrank 1 — guards sessions, nextID, draining, per-session lastUsed/inflight
	sessions map[string]*session
	nextID   int64
	draining bool

	janitorStop chan struct{}
	janitorDone chan struct{}
	stopOnce    sync.Once
}

// New builds a Server and starts its idle-eviction janitor.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:         opt,
		reg:         telemetry.Or(opt.Metrics),
		log:         telemetry.LoggerOr(opt.Logger),
		mux:         http.NewServeMux(),
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if opt.FlightRecorderCap >= 0 {
		s.flight = telemetry.NewFlightRecorder(opt.FlightRecorderCap)
	}
	s.reg.SetHelp("mc_serve_sessions_live", "Debugging sessions currently hosted.")
	s.reg.SetHelp("mc_serve_sessions_created_total", "Sessions created since process start.")
	s.reg.SetHelp("mc_serve_sessions_evicted_total", "Sessions evicted, by reason (idle, lru).")
	s.reg.SetHelp("mc_serve_admission_rejected_total", "Session creations rejected with 429 (table full, no idle session to evict).")
	s.reg.SetHelp("mc_serve_budget_rejected_total", "Table uploads rejected with 413 (per-session memory budget).")
	s.reg.SetHelp("mc_serve_requests_total", "HTTP requests served, by route and status code.")
	s.reg.SetHelp("mc_serve_request_seconds", "HTTP request latency, by route and status code.")
	s.reg.SetHelp("mc_serve_slow_requests_total", "Requests that tripped the slow-request watchdog, by route.")
	// Instantiate the gauge so /metrics exposes a zero before the first
	// session arrives; SetHelp alone does not create the series.
	s.reg.Gauge("mc_serve_sessions_live").Set(0)
	s.routes()
	go s.janitor()
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// routes wires the API surface. Route names (the metric/log labels) are
// passed explicitly because http.Request.Pattern postdates this module's
// language version.
func (s *Server) routes() {
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("POST /v1/sessions", "sessions_create", s.handleCreateSession)
	s.route("GET /v1/sessions", "sessions_list", s.handleListSessions)
	s.route("GET /v1/sessions/{id}", "session_get", s.sessionRoute("session_get", s.handleGetSession))
	s.route("DELETE /v1/sessions/{id}", "session_delete", s.sessionRoute("session_delete", s.handleDeleteSession))
	s.route("PUT /v1/sessions/{id}/tables/{side}", "tables_put", s.sessionRoute("tables_put", s.handleUploadTable))
	s.route("POST /v1/sessions/{id}/blocker", "blocker_set", s.sessionRoute("blocker_set", s.handleSetBlocker))
	s.route("POST /v1/sessions/{id}/join", "join", s.sessionRoute("join", s.handleJoin))
	s.route("GET /v1/sessions/{id}/candidates", "candidates", s.sessionRoute("candidates", s.handleCandidates))
	s.route("POST /v1/sessions/{id}/next", "next", s.sessionRoute("next", s.handleNext))
	s.route("POST /v1/sessions/{id}/labels", "labels", s.sessionRoute("labels", s.handleLabels))
	s.route("POST /v1/sessions/{id}/finish", "finish", s.sessionRoute("finish", s.handleFinish))
	s.route("GET /v1/sessions/{id}/progress", "progress", s.sessionRoute("progress", s.handleProgress))
	s.route("GET /v1/sessions/{id}/report", "report", s.sessionRoute("report", s.handleReport))
	s.route("GET /v1/sessions/{id}/explain", "explain", s.sessionRoute("explain", s.handleExplain))
	s.route("GET /debug/flightrecord", "flightrecord", s.handleFlightRecord)
	s.mux.Handle("GET /metrics", s.reg.Handler())
}

// statusWriter captures the response code and body size for the
// request's wide event, and carries the event itself so handlers can
// annotate it (error message, session id) without extra plumbing.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	ev    *telemetry.FlightEvent
	token uint64 // inflightReqs token, 0 when the request is untracked
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so the SSE progress stream
// can push frames through the envelope mid-request.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route registers a handler wrapped with the request envelope: a
// deadline on /v1 routes (threaded into handlers via the request
// context, which the join converts into cancellation), one wide event
// per request feeding the flight ring, the canonical log line, and the
// mc_serve_requests_total / mc_serve_request_seconds series.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ev := &telemetry.FlightEvent{
			Kind:   "request",
			Route:  name,
			Method: r.Method,
			Time:   start.UnixNano(),
		}
		if r.ContentLength > 0 {
			ev.BytesIn = r.ContentLength
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, ev: ev}
		if s.opt.RequestTimeout > 0 && strings.HasPrefix(r.URL.Path, "/v1/") {
			ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(sw, r)
		ev.Status = sw.code
		ev.BytesOut = sw.bytes
		ev.DurMicros = time.Since(start).Microseconds()
		code := strconv.Itoa(sw.code)
		s.reg.Counter("mc_serve_requests_total",
			telemetry.L("route", name), telemetry.L("code", code)).Inc()
		s.reg.Histogram("mc_serve_request_seconds",
			telemetry.L("route", name), telemetry.L("code", code)).
			Observe(time.Since(start).Seconds())
		if ev.Slow {
			s.reg.Counter("mc_serve_slow_requests_total", telemetry.L("route", name)).Inc()
		}
		s.flight.Record(*ev)
		s.logRequest(ev)
	})
}

// sessionRoute resolves the {id} path value, pins the session against
// eviction for the request's duration, opens a serve.request trace span
// under the session's serve.session root, annotates the request's wide
// event with the session and trace identity, and runs the slow-request
// watchdog: requests over Options.SlowRequest get their span subtree
// copied into the event so the flight ring retains the full tree even
// after the tracer's retention cap drops it.
func (s *Server) sessionRoute(name string, h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.PathValue("id")
		sess, ok := s.acquire(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no such session %q", id))
			return
		}
		defer s.release(sess)
		sp := sess.root.Child("serve.request",
			telemetry.L("route", name), telemetry.L("method", r.Method))
		sw, _ := w.(*statusWriter)
		if sw != nil && sw.ev != nil {
			sw.ev.Session = id
			sw.ev.TraceID = sp.TraceID()
			sw.ev.SpanID = sp.ID()
			// Only session routes enter the in-flight table: they are the
			// requests that can run long enough (joins) for a mid-request
			// dump to matter, and keeping the table off the sub-millisecond
			// envelope routes keeps recorder overhead inside the budget.
			// The copy is registered fully annotated, so dump readers never
			// see a half-identified request.
			if s.flight != nil {
				sw.token = s.inflightReqs.add(*sw.ev)
				defer s.inflightReqs.remove(sw.token)
			}
		}
		ctx := telemetry.ContextWithSpan(r.Context(), sp)
		h(w, r.WithContext(ctx), sess)
		code := http.StatusOK
		if sw != nil {
			code = sw.code
		}
		sp.SetAttrInt("status", int64(code))
		sp.End()
		if sw != nil && sw.ev != nil {
			slow := s.opt.SlowRequest > 0 && time.Since(start) >= s.opt.SlowRequest
			if slow {
				sw.ev.Slow = true
			}
			if slow || code >= http.StatusInternalServerError {
				sw.ev.Spans = sess.tracer.ExportSubtree(sp.ID())
			}
		}
	}
}

// acquire looks up a session, bumps its in-flight count (pinning it
// against eviction) and its recency.
func (s *Server) acquire(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, false
	}
	sess.inflight++
	sess.lastUsed = time.Now()
	return sess, true
}

func (s *Server) release(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess.inflight--
	sess.lastUsed = time.Now()
}

// BeginShutdown stops admitting sessions and flips /readyz to 503, so
// load balancers drain the instance while in-flight requests (and the
// subsequent http.Server.Shutdown) complete. If FlightDumpPath is set,
// the flight record is dumped to disk as the drain begins — capturing
// every request still in flight (the join a SIGTERM interrupted) while
// the evidence is still fresh.
func (s *Server) BeginShutdown() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.dumpFlightToDisk("drain")
	}
}

// Close finishes every surviving session (ending trace spans and
// appending ledger records) and stops the janitor. Call it after
// http.Server.Shutdown has drained in-flight requests.
func (s *Server) Close() {
	s.BeginShutdown()
	s.stopOnce.Do(func() { close(s.janitorStop) })
	<-s.janitorDone
	s.mu.Lock()
	victims := make([]*session, 0, len(s.sessions))
	for id, sess := range s.sessions {
		victims = append(victims, sess)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	// Sessions close in id order so the drain's ledger records land in a
	// deterministic order (and mclint's mapiter analyzer stays quiet).
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, sess := range victims {
		s.closeSession(sess, "shutdown")
	}
	s.reg.Gauge("mc_serve_sessions_live").Set(0)
	// Re-dump now that the drain completed: the file on disk ends up
	// holding the whole shutdown story, completed requests included.
	s.dumpFlightToDisk("close")
}

// janitor evicts idle sessions on a timer derived from IdleTimeout.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	if s.opt.IdleTimeout <= 0 {
		<-s.janitorStop
		return
	}
	interval := s.opt.IdleTimeout / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.evictIdle()
		}
	}
}

func (s *Server) evictIdle() {
	cutoff := time.Now().Add(-s.opt.IdleTimeout)
	s.mu.Lock()
	var victims []*session
	for id, sess := range s.sessions {
		if sess.inflight == 0 && sess.lastUsed.Before(cutoff) {
			victims = append(victims, sess)
			delete(s.sessions, id)
		}
	}
	live := len(s.sessions)
	s.mu.Unlock()
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, sess := range victims {
		s.closeSession(sess, "idle")
		s.reg.Counter("mc_serve_sessions_evicted_total", telemetry.L("reason", "idle")).Inc()
	}
	if len(victims) > 0 {
		s.reg.Gauge("mc_serve_sessions_live").Set(float64(live))
	}
}

// lruIdleLocked returns the least-recently-used session with no request
// in flight, or nil if every session is busy. Caller holds s.mu.
func (s *Server) lruIdleLocked() *session {
	var victim *session
	for _, sess := range s.sessions {
		if sess.inflight != 0 {
			continue
		}
		if victim == nil || sess.lastUsed.Before(victim.lastUsed) {
			victim = sess
		}
	}
	return victim
}
