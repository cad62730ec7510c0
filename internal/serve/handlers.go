package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/core"
	"matchcatcher/internal/runlog"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// Sentinel errors the admission path maps to status codes.
var (
	errDraining = errors.New("server is draining")
	errBusy     = errors.New("session table full and every session is busy")
)

// The wire types. Every request body is JSON except table uploads,
// whose body is the raw CSV.

type createSessionRequest struct {
	Seed    int64    `json:"seed"`
	K       int      `json:"k"`
	N       int      `json:"n"`
	Workers int      `json:"workers"`
	Watch   [][2]int `json:"watch"`
}

type sessionInfo struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	Seed         int64  `json:"seed"`
	K            int    `json:"k"`
	N            int    `json:"n"`
	Workers      int    `json:"workers"`
	MemUsedBytes int64  `json:"mem_used_bytes"`
	Iterations   int    `json:"iterations"`
	MatchesFound int    `json:"matches_found"`
	Done         bool   `json:"done"`
}

type blockerRequest struct {
	Drops      []string `json:"drops"`
	Keeps      []string `json:"keeps"`
	AttrEquals []string `json:"attr_equals"`
}

type pairJSON struct {
	A int `json:"a"`
	B int `json:"b"`
}

type shownPair struct {
	A       int      `json:"a"`
	B       int      `json:"b"`
	ValuesA []string `json:"values_a"`
	ValuesB []string `json:"values_b"`
}

type labelsRequest struct {
	Labels []bool `json:"labels"`
}

// jsonBuf is a response buffer with an indenting encoder bound to it,
// so a response builds neither.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledJSON caps the buffers jsonBufs keeps: one large response
// (a 1000-pair candidates page is ~40 KiB) must not pin its memory.
const maxPooledJSON = 64 << 10

var jsonBufs = sync.Pool{New: func() any {
	b := new(jsonBuf)
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}}

// writeJSON answers v as indented JSON plus a newline: the bytes of
// json.MarshalIndent(v, "", "  ") and "\n".
func writeJSON(w http.ResponseWriter, code int, v any) {
	b := jsonBufs.Get().(*jsonBuf)
	defer releaseJSON(b)
	b.buf.Reset()
	err := b.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(b.buf.Bytes()) // a failed write is the client's loss; the status is sent
	}
}

func releaseJSON(b *jsonBuf) {
	if b.buf.Cap() <= maxPooledJSON {
		jsonBufs.Put(b)
	}
}

// byteCounter counts the bytes read through it.
type byteCounter struct {
	r io.Reader
	n int64
}

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// writeError answers an error and annotates the request's wide event
// with it, so the canonical log line and the flight record carry the
// exact message the client saw.
func writeError(w http.ResponseWriter, code int, msg string) {
	if ev := eventOf(w); ev != nil {
		ev.Err = msg
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.K < 0 || req.N < 0 || req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "k, n and workers must be non-negative")
		return
	}
	// Every join worker holds its own pooled buffers, so counts past the
	// cores buy no speed and let one request stall or exhaust the server;
	// the lists are byte-identical at any count, so clamping cannot
	// change a session's output. Zero keeps the default.
	cfg := sessionConfig{
		Seed: req.Seed, K: req.K, N: req.N,
		Workers: min(req.Workers, runtime.GOMAXPROCS(0)),
		Watch:   req.Watch,
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.K == 0 {
		cfg.K = 1000
	}
	if cfg.N == 0 {
		cfg.N = 20
	}
	for _, p := range cfg.Watch {
		if p[0] < 0 || p[1] < 0 {
			writeError(w, http.StatusBadRequest, "watch pairs must be non-negative row ids")
			return
		}
	}
	sess, err := s.admit(cfg)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	// The create's canonical log line carries the new session id; the
	// "created" transition event (recorded by admit) carries the rest.
	if ev := eventOf(w); ev != nil {
		ev.Session = sess.id
	}
	writeJSON(w, http.StatusCreated, s.infoFor(sess))
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	infos := make([]sessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = s.infoFor(sess)
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) infoFor(sess *session) sessionInfo {
	info := sessionInfo{
		ID: sess.id, State: sess.state(),
		Seed: sess.cfg.Seed, K: sess.cfg.K, N: sess.cfg.N,
		Workers: sess.cfg.Workers,
	}
	sess.mu.Lock()
	info.MemUsedBytes = sess.memUsed
	dbg := sess.dbg
	sess.mu.Unlock()
	if dbg != nil {
		info.Iterations = dbg.Iterations()
		info.MatchesFound = len(dbg.Matches())
		info.Done = dbg.Done()
	}
	return info
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request, sess *session) {
	writeJSON(w, http.StatusOK, s.infoFor(sess))
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request, sess *session) {
	s.remove(sess.id)
	s.closeSession(sess, "deleted")
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUploadTable(w http.ResponseWriter, r *http.Request, sess *session) {
	side := r.PathValue("side")
	if side != "a" && side != "b" {
		writeError(w, http.StatusNotFound, "table side must be \"a\" or \"b\"")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = side
	}
	sess.mu.Lock()
	joined := sess.dbg != nil || sess.joining
	remaining := s.opt.SessionMemBudget - sess.memUsed
	sess.mu.Unlock()
	if joined {
		writeError(w, http.StatusConflict, "session already joined; tables are frozen")
		return
	}
	// Parse straight from the capped body: the upload is never held
	// whole, and no buffer is sized from the client's Content-Length.
	// A malformed row before the budget runs out answers 400 first.
	body := &byteCounter{r: http.MaxBytesReader(w, r.Body, remaining)}
	t, err := table.ReadCSV(name, body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reg.Counter("mc_serve_budget_rejected_total").Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("upload exceeds the session's remaining memory budget (%d bytes left)", remaining))
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess.mu.Lock()
	if sess.dbg != nil || sess.joining {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "session already joined; tables are frozen")
		return
	}
	if side == "a" {
		sess.a = t
	} else {
		sess.b = t
	}
	sess.memUsed += body.n
	if sess.st == stateCreated || sess.st == stateTables {
		// Re-uploads while blocked stay blocked; the blocker result is
		// replaced on the next /blocker call, not invalidated here.
		_ = sess.advanceLocked(stateTables)
	}
	sess.mu.Unlock()
	telemetry.SpanFromContext(r.Context()).SetAttrInt("bytes", body.n)
	writeJSON(w, http.StatusOK, map[string]any{
		"table": t.Name(), "rows": t.NumRows(), "attrs": t.Attrs(),
	})
}

func (s *Server) handleSetBlocker(w http.ResponseWriter, r *http.Request, sess *session) {
	var req blockerRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sess.mu.Lock()
	a, b := sess.a, sess.b
	joined := sess.dbg != nil || sess.joining
	sess.mu.Unlock()
	if joined {
		writeError(w, http.StatusConflict, "session already joined; the blocker is frozen")
		return
	}
	if a == nil || b == nil {
		writeError(w, http.StatusConflict, "upload both tables before setting a blocker")
		return
	}
	q, err := blocker.BuildFromRules(req.Drops, req.Keeps, req.AttrEquals)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The session's own span and provenance observe the call, so
	// tenants block in parallel without seeing each other.
	bsp := telemetry.SpanFromContext(r.Context()).Child("blocker.run", telemetry.L("blocker", q.Name()))
	c, err := blocker.Run(q, a, b, bsp, sess.prov)
	bsp.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sess.mu.Lock()
	if sess.dbg != nil || sess.joining {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "session already joined; the blocker is frozen")
		return
	}
	sess.q, sess.c = q, c
	// Guards above ensure both tables exist, so st >= stateTables and
	// the advance cannot fail (blocked re-enters itself on re-runs).
	_ = sess.advanceLocked(stateBlocked)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"blocker": q.Name(), "c_size": c.Len()})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request, sess *session) {
	sess.mu.Lock()
	if sess.dbg != nil || sess.joining {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "session already joined")
		return
	}
	if sess.c == nil {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "set a blocker before joining")
		return
	}
	sess.joining = true
	// Fresh tracker and done-signal per attempt: progress requests racing
	// this join observe the attempt's own counters, and SSE streams wake
	// on joinDone no matter how the attempt ends.
	prog := ssjoin.NewProgress()
	joinDone := make(chan struct{})
	sess.prog, sess.joinDone = prog, joinDone
	a, b, c := sess.a, sess.b, sess.c
	sess.mu.Unlock()
	defer func() {
		sess.mu.Lock()
		sess.joining = false
		sess.mu.Unlock()
		close(joinDone)
	}()

	opt := core.Options{
		Ctx:        r.Context(),
		Metrics:    sess.reg,
		Trace:      sess.tracer,
		Logger:     sess.log,
		Provenance: sess.prov,
	}
	opt.Join.Progress = prog
	opt.Join.K = sess.cfg.K
	opt.Join.Workers = sess.cfg.Workers
	opt.Verifier.N = sess.cfg.N
	opt.Verifier.Seed = sess.cfg.Seed
	dbg, err := core.New(a, b, c, opt)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	sess.mu.Lock()
	sess.dbg = dbg
	sess.joinedAt = time.Now()
	// sess.c was non-nil under the joining guard, so st == stateBlocked
	// and the advance cannot fail.
	_ = sess.advanceLocked(stateJoined)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"promising_attrs": dbg.Configs().Promising,
		"configs":         len(dbg.Lists()),
		"e_size":          dbg.CandidateCount(),
	})
}

// requireDebugger fetches the session's Debugger or answers 409.
func requireDebugger(w http.ResponseWriter, sess *session) (*core.Debugger, bool) {
	dbg := sess.debugger()
	if dbg == nil {
		writeError(w, http.StatusConflict, "run the join first")
		return nil, false
	}
	return dbg, true
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request, sess *session) {
	dbg, ok := requireDebugger(w, sess)
	if !ok {
		return
	}
	offset := intQuery(r, "offset", 0)
	limit := intQuery(r, "limit", 50)
	if offset < 0 || limit <= 0 || limit > 1000 {
		writeError(w, http.StatusBadRequest, "want offset >= 0 and 0 < limit <= 1000")
		return
	}
	page, total := dbg.RankingPage(offset, limit)
	pairs := make([]pairJSON, len(page))
	for i, p := range page {
		pairs[i] = pairJSON{A: p.A, B: p.B}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total": total, "offset": min(offset, total), "pairs": pairs,
	})
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request, sess *session) {
	dbg, ok := requireDebugger(w, sess)
	if !ok {
		return
	}
	if dbg.Finished() {
		writeError(w, http.StatusConflict, "session is finished")
		return
	}
	batch := dbg.Next()
	pairs := make([]shownPair, 0, len(batch))
	for _, p := range batch {
		pairs = append(pairs, shownPair{
			A: p.A, B: p.B,
			ValuesA: dbg.RowA(p.A), ValuesB: dbg.RowB(p.B),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"iteration": dbg.Iterations() + 1,
		"pairs":     pairs,
		"done":      len(batch) == 0,
	})
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request, sess *session) {
	dbg, ok := requireDebugger(w, sess)
	if !ok {
		return
	}
	var req labelsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := dbg.Feedback(req.Labels); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"iterations":    dbg.Iterations(),
		"matches_found": len(dbg.Matches()),
		"done":          dbg.Done(),
	})
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request, sess *session) {
	dbg, ok := requireDebugger(w, sess)
	if !ok {
		return
	}
	dbg.Finish()
	sess.mu.Lock()
	if err := sess.advanceLocked(stateFinished); err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	rec, record := s.sessionRecordLocked(sess)
	sess.mu.Unlock()
	// Append outside sess.mu: ledger writes are file I/O and must not
	// stall concurrent requests on this session (lockorder enforces it).
	if record {
		if err := runlog.Append(s.opt.LedgerPath, rec); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("ledger append: %v", err))
			return
		}
	}
	s.transition(sess, "finished")
	writeJSON(w, http.StatusOK, map[string]any{
		"iterations":    dbg.Iterations(),
		"matches_found": len(dbg.Matches()),
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, sess *session) {
	dbg, ok := requireDebugger(w, sess)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Canonical (telemetry-free) by default: byte-identical across
	// same-seed runs and transports. ?telemetry=1 adds this session
	// registry's snapshot, which carries wall-clock histograms.
	var err error
	if r.URL.Query().Get("telemetry") == "1" {
		err = dbg.WriteReport(w)
	} else {
		err = dbg.WriteCanonicalReport(w)
	}
	if err != nil {
		s.log.Error("report write failed", "session", sess.id, "err", err)
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, sess *session) {
	dbg, ok := requireDebugger(w, sess)
	if !ok {
		return
	}
	a := intQuery(r, "a", -1)
	b := intQuery(r, "b", -1)
	if a < 0 || b < 0 {
		writeError(w, http.StatusBadRequest, "want ?a=<a_row>&b=<b_row>")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := dbg.WriteExplainPair(w, a, b); err != nil {
		s.log.Error("explain write failed", "session", sess.id, "err", err)
	}
}

// maxJSONBody caps a JSON request body (create-session, blocker,
// labels). The largest legitimate one is a labels batch: one bool per
// pair, so 1 MiB holds about 200,000 labels, far past any batch size a
// user labels by hand.
const maxJSONBody = 1 << 20

// decodeJSON decodes the request body into v, tolerating an empty body
// (all fields default). It answers 400 to unknown fields and trailing
// garbage and 413 to a body over maxJSONBody, and reports whether v
// was decoded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.More() {
		err = errors.New("trailing data")
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil || errors.Is(err, io.EOF):
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxJSONBody))
	default:
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return false
}

func intQuery(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return -1
	}
	return n
}
