package serve

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/core"
	"matchcatcher/internal/runlog"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// sessionConfig is the immutable per-session configuration fixed at
// creation: the same knobs mcdebug takes on its command line, so a
// scripted HTTP session can reproduce a CLI session exactly.
type sessionConfig struct {
	Seed    int64
	K       int
	N       int
	Workers int
	Watch   [][2]int
}

// session is one tenant: the state a single mcdebug invocation owns,
// plus private telemetry so tenants never share mutable observability
// state. Two lock domains govern it: Server.mu guards the scheduling
// fields (lastUsed, inflight — what eviction reads), and session.mu
// guards the debugging state below it. The core.Debugger carries its
// own internal lock, so handlers may call it with or without session.mu
// held.
type session struct {
	id      string
	created time.Time
	cfg     sessionConfig

	// Guarded by Server.mu (the scheduler's lock, not the session's).
	lastUsed time.Time
	inflight int

	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	root   *telemetry.TraceSpan // serve.session — parent of all request spans
	prov   *telemetry.Provenance
	log    *slog.Logger

	mu       sync.Mutex //mc:lockrank 2 — the session's lock domain
	st       sessionState
	memUsed  int64
	a, b     *table.Table
	q        blocker.Blocker
	c        *blocker.PairSet
	joining  bool // a join request is building the Debugger
	dbg      *core.Debugger
	joinedAt time.Time
	recorded bool // ledger record written (exactly once per completed session)

	// Join observability: prog is the live tracker attached to the most
	// recent join attempt (its snapshots are lock-free, so the progress
	// handler reads it without holding mu) and joinDone is closed when
	// that attempt ends, however it ends — success, error, or
	// cancellation — so SSE streams tear down promptly. Both are fresh
	// per attempt and stay readable after it: a progress request on a
	// joined session answers the final snapshot.
	prog     *ssjoin.Progress
	joinDone chan struct{}
}

func newSession(id string, cfg sessionConfig, log *slog.Logger) *session {
	reg := telemetry.New()
	tracer := telemetry.NewTracer(reg)
	root := tracer.Start("serve.session", telemetry.L("session", id))
	now := time.Now()
	return &session{
		id:       id,
		created:  now,
		lastUsed: now,
		cfg:      cfg,
		reg:      reg,
		tracer:   tracer,
		root:     root,
		prov:     telemetry.NewProvenance(cfg.Watch...),
		log:      telemetry.LoggerOr(log).With("session", id),
	}
}

// state returns the wire name of the session's lifecycle phase.
func (sess *session) state() string {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.st.String()
}

// debugger returns the session's Debugger, or nil before the join.
func (sess *session) debugger() *core.Debugger {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.dbg
}

// closeSession finishes a session removed from the table (deleted,
// evicted, or drained at shutdown): it finishes the Debugger (idempotent
// if the client already did), ends the serve.session span, and appends
// the session's ledger record if the session ever joined and no record
// was written yet.
func (s *Server) closeSession(sess *session, reason string) {
	sess.mu.Lock()
	var advErr error
	if sess.dbg != nil {
		sess.dbg.Finish()
		// An unfinished joined session finishes now; an explicit
		// /finish already advanced (finished→finished self-loop).
		advErr = sess.advanceLocked(stateFinished)
	}
	sess.root.End()
	rec, record := s.sessionRecordLocked(sess)
	sess.mu.Unlock()
	if advErr != nil {
		s.log.Error("close transition failed", "session", sess.id, "err", advErr)
	}
	// The ledger append does file I/O; it must not run under sess.mu
	// (the lockorder analyzer enforces this).
	if record {
		if err := runlog.Append(s.opt.LedgerPath, rec); err != nil {
			s.log.Error("ledger append failed", "session", sess.id, "err", err)
		}
	}
	s.transition(sess, closeTransition(reason))
}

// closeTransition maps a close reason onto the session transition name
// the flight record uses.
func closeTransition(reason string) string {
	switch reason {
	case "idle":
		return "evicted_idle"
	case "lru":
		return "evicted_lru"
	default: // "deleted", "shutdown"
		return reason
	}
}

// sessionRecordLocked builds the session's runlog record — one per
// completed session, however it completes (explicit finish, delete,
// idle/LRU eviction, shutdown drain) — and marks the session recorded.
// Caller holds sess.mu; the append itself is the caller's job, after
// releasing the lock, because runlog.Append does file I/O.
func (s *Server) sessionRecordLocked(sess *session) (runlog.Record, bool) {
	if sess.recorded || sess.dbg == nil || s.opt.LedgerPath == "" {
		return runlog.Record{}, false
	}
	sess.recorded = true
	blockerName := ""
	if sess.q != nil {
		blockerName = sess.q.Name()
	}
	rec := runlog.New("mcserve", "session", sess.cfg.Seed, map[string]any{
		"session": sess.id, "blocker": blockerName,
		"k": sess.cfg.K, "n": sess.cfg.N,
		"workers": sess.cfg.Workers,
	})
	rec.Metrics = map[string]float64{
		"mcserve:iterations":    float64(sess.dbg.Iterations()),
		"mcserve:matches_found": float64(len(sess.dbg.Matches())),
		"mcserve:wall_seconds":  time.Since(sess.joinedAt).Seconds(),
	}
	rec.AttachTelemetry(sess.reg)
	return rec, true
}

// admit creates a session under admission control: at MaxSessions it
// evicts the LRU idle session, and if every session is busy it refuses
// (the caller answers 429). A draining server refuses outright (503).
func (s *Server) admit(cfg sessionConfig) (*session, error) {
	var victim *session
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	if len(s.sessions) >= s.opt.MaxSessions {
		victim = s.lruIdleLocked()
		if victim == nil {
			s.mu.Unlock()
			s.reg.Counter("mc_serve_admission_rejected_total").Inc()
			return nil, errBusy
		}
		delete(s.sessions, victim.id)
	}
	s.nextID++
	sess := newSession(fmt.Sprintf("s%06d", s.nextID), cfg, s.opt.Logger)
	s.sessions[sess.id] = sess
	live := len(s.sessions)
	s.mu.Unlock()

	if victim != nil {
		s.closeSession(victim, "lru")
		s.reg.Counter("mc_serve_sessions_evicted_total", telemetry.L("reason", "lru")).Inc()
	}
	s.reg.Counter("mc_serve_sessions_created_total").Inc()
	s.reg.Gauge("mc_serve_sessions_live").Set(float64(live))
	s.transition(sess, "created")
	return sess, nil
}

// remove unlinks a session from the table (the delete handler's first
// half; closeSession is the second).
func (s *Server) remove(id string) {
	s.mu.Lock()
	delete(s.sessions, id)
	live := len(s.sessions)
	s.mu.Unlock()
	s.reg.Gauge("mc_serve_sessions_live").Set(float64(live))
}
