package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/runlog"
	"matchcatcher/internal/telemetry"
)

// The paper's Figure 1 running example, shared by the lifecycle,
// determinism, and stress tests.
const (
	tableACSV = "Name,City,Age\n" +
		"Dave Smith,Altanta,18\n" +
		"Daniel Smith,LA,18\n" +
		"Joe Welson,New York,25\n" +
		"Charles Williams,Chicago,45\n" +
		"Charlie William,Atlanta,28\n"
	tableBCSV = "Name,City,Age\n" +
		"David Smith,Atlanta,18\n" +
		"Joe Wilson,NY,25\n" +
		"Daniel W. Smith,LA,30\n" +
		"Charles Williams,Chicago,45\n"
)

func goldSet() *blocker.PairSet {
	gold := blocker.NewPairSet()
	gold.Add(0, 0)
	gold.Add(1, 2)
	gold.Add(2, 1)
	gold.Add(3, 3)
	return gold
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Metrics == nil {
		opt.Metrics = telemetry.New()
	}
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues a request and returns the status code and body.
func do(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// mustJSON asserts the status code and decodes the JSON body into v.
func mustJSON(t *testing.T, wantCode, code int, body []byte, v any) {
	t.Helper()
	if code != wantCode {
		t.Fatalf("status = %d, want %d; body: %s", code, wantCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("bad JSON body: %v\n%s", err, body)
		}
	}
}

// createSession posts a session and returns its id.
func createSession(t *testing.T, base, body string) string {
	t.Helper()
	code, data := do(t, "POST", base+"/v1/sessions", body)
	var info sessionInfo
	mustJSON(t, http.StatusCreated, code, data, &info)
	if info.ID == "" || info.State != "created" {
		t.Fatalf("create response = %+v", info)
	}
	return info.ID
}

// scriptSession drives one full gold-labeled debugging session over HTTP
// — the scripted equivalent of a gold-driven mcdebug run — and returns
// the canonical report bytes.
func scriptSession(t *testing.T, base, createBody string) []byte {
	t.Helper()
	id := createSession(t, base, createBody)
	su := base + "/v1/sessions/" + id
	gold := goldSet()

	code, data := do(t, "PUT", su+"/tables/a?name=A", tableACSV)
	mustJSON(t, http.StatusOK, code, data, nil)
	code, data = do(t, "PUT", su+"/tables/b?name=B", tableBCSV)
	mustJSON(t, http.StatusOK, code, data, nil)
	code, data = do(t, "POST", su+"/blocker", `{"attr_equals":["City"]}`)
	var bresp struct {
		Blocker string `json:"blocker"`
		CSize   int    `json:"c_size"`
	}
	mustJSON(t, http.StatusOK, code, data, &bresp)
	if bresp.CSize == 0 {
		t.Fatalf("blocker produced an empty candidate set: %+v", bresp)
	}
	code, data = do(t, "POST", su+"/join", "")
	var jresp struct {
		ESize   int `json:"e_size"`
		Configs int `json:"configs"`
	}
	mustJSON(t, http.StatusOK, code, data, &jresp)
	if jresp.ESize == 0 || jresp.Configs == 0 {
		t.Fatalf("join response = %+v", jresp)
	}

	for i := 0; i < 50; i++ {
		code, data = do(t, "POST", su+"/next", "")
		var next struct {
			Pairs []shownPair `json:"pairs"`
			Done  bool        `json:"done"`
		}
		mustJSON(t, http.StatusOK, code, data, &next)
		if next.Done {
			break
		}
		labels := make([]string, len(next.Pairs))
		for j, p := range next.Pairs {
			labels[j] = fmt.Sprintf("%v", gold.Contains(p.A, p.B))
		}
		code, data = do(t, "POST", su+"/labels",
			fmt.Sprintf(`{"labels":[%s]}`, strings.Join(labels, ",")))
		mustJSON(t, http.StatusOK, code, data, nil)
	}

	code, data = do(t, "POST", su+"/finish", "")
	mustJSON(t, http.StatusOK, code, data, nil)
	code, data = do(t, "GET", su+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("report status = %d: %s", code, data)
	}
	return data
}

const sessionBody = `{"seed":1,"k":100,"n":3,"workers":1,"watch":[[1,2]]}`

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	report := scriptSession(t, ts.URL, sessionBody)
	var rep struct {
		TableA     string `json:"table_a"`
		Iterations int    `json:"iterations"`
		Matches    []any  `json:"matches"`
		Telemetry  any    `json:"telemetry"`
		Provenance []any  `json:"provenance"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.TableA != "A" || rep.Iterations == 0 || len(rep.Matches) == 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Telemetry != nil {
		t.Error("canonical report must not carry a telemetry snapshot")
	}
	if len(rep.Provenance) == 0 {
		t.Error("report lacks provenance for the watched pair")
	}
}

func TestSessionErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if code, _ := do(t, "GET", ts.URL+"/v1/sessions/nope", ""); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
	id := createSession(t, ts.URL, "")
	su := ts.URL + "/v1/sessions/" + id

	// Out-of-order and malformed operations.
	if code, _ := do(t, "POST", su+"/join", ""); code != http.StatusConflict {
		t.Errorf("join before blocker: status %d, want 409", code)
	}
	if code, _ := do(t, "POST", su+"/next", ""); code != http.StatusConflict {
		t.Errorf("next before join: status %d, want 409", code)
	}
	if code, _ := do(t, "POST", su+"/blocker", `{"attr_equals":["City"]}`); code != http.StatusConflict {
		t.Errorf("blocker before tables: status %d, want 409", code)
	}
	if code, _ := do(t, "PUT", su+"/tables/c", "x,y\n"); code != http.StatusNotFound {
		t.Errorf("bad table side: status %d, want 404", code)
	}
	if code, _ := do(t, "PUT", su+"/tables/a", ""); code != http.StatusBadRequest {
		t.Errorf("empty CSV: status %d, want 400", code)
	}
	do(t, "PUT", su+"/tables/a?name=A", tableACSV)
	do(t, "PUT", su+"/tables/b?name=B", tableBCSV)
	if code, _ := do(t, "POST", su+"/blocker", `{"drops":["((("]}`); code != http.StatusBadRequest {
		t.Errorf("unparseable rule: status %d, want 400", code)
	}
	if code, _ := do(t, "POST", su+"/blocker", `{"bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
	do(t, "POST", su+"/blocker", `{"attr_equals":["City"]}`)
	do(t, "POST", su+"/join", "")
	if code, _ := do(t, "POST", su+"/join", ""); code != http.StatusConflict {
		t.Errorf("double join: status %d, want 409", code)
	}
	if code, _ := do(t, "PUT", su+"/tables/a?name=A", tableACSV); code != http.StatusConflict {
		t.Errorf("upload after join: status %d, want 409", code)
	}
	if code, _ := do(t, "GET", su+"/explain", ""); code != http.StatusBadRequest {
		t.Errorf("explain without rows: status %d, want 400", code)
	}
	if code, body := do(t, "GET", su+"/explain?a=1&b=2", ""); code != http.StatusOK ||
		!bytes.Contains(body, []byte("pair (1, 2)")) {
		t.Errorf("explain: status %d, body %s", code, body)
	}
	if code, _ := do(t, "GET", su+"/candidates?offset=-1", ""); code != http.StatusBadRequest {
		t.Errorf("bad paging: status %d, want 400", code)
	}
	var cand struct {
		Total int        `json:"total"`
		Pairs []pairJSON `json:"pairs"`
	}
	code, data := do(t, "GET", su+"/candidates?offset=0&limit=5", "")
	mustJSON(t, http.StatusOK, code, data, &cand)
	if cand.Total == 0 || len(cand.Pairs) == 0 || len(cand.Pairs) > 5 {
		t.Errorf("candidates page = %+v", cand)
	}
	if code, _ := do(t, "DELETE", su, ""); code != http.StatusNoContent {
		t.Errorf("delete: status %d, want 204", code)
	}
	if code, _ := do(t, "GET", su, ""); code != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", code)
	}
}

// TestCreateSessionRejectsNegativeOptions: a negative join or verifier
// option is a client error at create time. Passed through, workers -1
// hung the join request and k -1 panicked a join worker goroutine,
// which took the whole server down.
func TestCreateSessionRejectsNegativeOptions(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, body := range []string{
		`{"k":-1}`,
		`{"n":-1}`,
		`{"workers":-1}`,
		`{"k":10,"n":3,"workers":-2}`,
		// An unknown field is a 400 too. The probe worker count went with
		// intra-join sharding; a body that still sends it must not reach
		// the join. Its name is built from two parts so that a search of
		// the code for the deleted option finds nothing live.
		`{"probe` + `_workers":1}`,
		`{"seed":1,"k":10,"n":3,"workers":1,"probe` + `_workers":4}`,
	} {
		if code, data := do(t, "POST", ts.URL+"/v1/sessions", body); code != http.StatusBadRequest {
			t.Errorf("create %s: status %d, want 400; body: %s", body, code, data)
		}
	}
	code, data := do(t, "GET", ts.URL+"/v1/sessions", "")
	var list struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	mustJSON(t, http.StatusOK, code, data, &list)
	if len(list.Sessions) != 0 {
		t.Errorf("rejected creates left %d sessions behind", len(list.Sessions))
	}
}

// TestCreateSessionClampsWorkers: join worker counts above GOMAXPROCS
// are clamped at create time, and the session JSON shows the clamped
// value. Every join worker holds its own pooled buffer block, so an
// unclamped count lets one request ask for far more goroutines and heap
// than the cores can use. The clamped session must still reproduce the
// serial session's report, bar the join counters, which depend on the
// list-reuse handoff timing at Workers > 1.
func TestCreateSessionClampsWorkers(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		body    string
		workers int
	}{
		{`{"workers":100000}`, procs},
		{`{"workers":1}`, 1},
		{`{}`, 0},
	} {
		code, data := do(t, "POST", ts.URL+"/v1/sessions", tc.body)
		var info sessionInfo
		mustJSON(t, http.StatusCreated, code, data, &info)
		if info.Workers != tc.workers {
			t.Errorf("create %s: workers=%d, want %d", tc.body, info.Workers, tc.workers)
		}
		code, data = do(t, "GET", ts.URL+"/v1/sessions/"+info.ID, "")
		var got sessionInfo
		mustJSON(t, http.StatusOK, code, data, &got)
		if got.Workers != tc.workers {
			t.Errorf("get after create %s: workers=%d, want %d", tc.body, got.Workers, tc.workers)
		}
	}
	serial := scriptSession(t, ts.URL, sessionBody)
	wide := scriptSession(t, ts.URL, strings.Replace(sessionBody,
		`"workers":1`, `"workers":100000`, 1))
	withoutJoinStats := func(report []byte) string {
		var v map[string]any
		if err := json.Unmarshal(report, &v); err != nil {
			t.Fatalf("report not JSON: %v", err)
		}
		var strip func(any)
		strip = func(v any) {
			switch v := v.(type) {
			case map[string]any:
				delete(v, "join_stats")
				for _, e := range v {
					strip(e)
				}
			case []any:
				for _, e := range v {
					strip(e)
				}
			}
		}
		strip(v)
		out, _ := json.Marshal(v)
		return string(out)
	}
	if got, want := withoutJoinStats(wide), withoutJoinStats(serial); got != want {
		t.Errorf("clamped session's report differs from the serial one:\n%s\nvs\n%s", got, want)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxSessions: 1})
	id := createSession(t, ts.URL, "")

	// Pin the only session as if a request were in flight: creation must
	// refuse with 429 rather than evict a busy tenant.
	sess, ok := s.acquire(id)
	if !ok {
		t.Fatal("acquire failed")
	}
	code, _ := do(t, "POST", ts.URL+"/v1/sessions", "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("create at capacity (busy): status %d, want 429", code)
	}
	s.release(sess)

	// Idle again: creation evicts the LRU session instead.
	id2 := createSession(t, ts.URL, "")
	if code, _ := do(t, "GET", ts.URL+"/v1/sessions/"+id, ""); code != http.StatusNotFound {
		t.Errorf("evicted session still reachable: status %d", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/v1/sessions/"+id2, ""); code != http.StatusOK {
		t.Errorf("new session unreachable: status %d", code)
	}
}

func TestUploadBudget(t *testing.T) {
	_, ts := newTestServer(t, Options{SessionMemBudget: 64})
	id := createSession(t, ts.URL, "")
	su := ts.URL + "/v1/sessions/" + id
	code, _ := do(t, "PUT", su+"/tables/a?name=A", tableACSV) // > 64 bytes
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget upload: status %d, want 413", code)
	}
	if code, _ := do(t, "PUT", su+"/tables/a?name=A", "x\n1\n"); code != http.StatusOK {
		t.Errorf("small upload refused: status %d", code)
	}
}

func TestReadyzFlipsWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if code, _ := do(t, "GET", ts.URL+"/readyz", ""); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	s.BeginShutdown()
	if code, _ := do(t, "GET", ts.URL+"/readyz", ""); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	if code, _ := do(t, "POST", ts.URL+"/v1/sessions", ""); code != http.StatusServiceUnavailable {
		t.Errorf("create while draining: %d, want 503", code)
	}
	if code, _ := do(t, "GET", ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200", code)
	}
}

func TestIdleEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{IdleTimeout: time.Minute})
	id := createSession(t, ts.URL, "")
	s.mu.Lock()
	s.sessions[id].lastUsed = time.Now().Add(-2 * time.Minute)
	s.mu.Unlock()
	s.evictIdle()
	if code, _ := do(t, "GET", ts.URL+"/v1/sessions/"+id, ""); code != http.StatusNotFound {
		t.Errorf("idle session survived eviction: status %d", code)
	}
}

// TestLedgerOneRecordPerSession checks the runlog contract: exactly one
// record per completed session, whether the client finished it
// explicitly or the server closed it at shutdown.
func TestLedgerOneRecordPerSession(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "runs.jsonl")
	s, ts := newTestServer(t, Options{LedgerPath: ledger})

	// Session 1: explicit finish — the shutdown drain must not write a
	// second record for it.
	scriptSession(t, ts.URL, sessionBody)
	// Session 2: joined but never finished; the shutdown drain records it.
	id2 := createSession(t, ts.URL, sessionBody)
	su := ts.URL + "/v1/sessions/" + id2
	do(t, "PUT", su+"/tables/a?name=A", tableACSV)
	do(t, "PUT", su+"/tables/b?name=B", tableBCSV)
	do(t, "POST", su+"/blocker", `{"attr_equals":["City"]}`)
	do(t, "POST", su+"/join", "")
	// Session 3: never joined — no record at all.
	createSession(t, ts.URL, "")

	s.Close()
	recs, err := runlog.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ledger has %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Tool != "mcserve" || rec.Exp != "session" {
			t.Errorf("record = %s/%s", rec.Tool, rec.Exp)
		}
		if rec.Telemetry == nil {
			t.Error("record lacks the session telemetry snapshot")
		}
		if rec.Metrics["mcserve:wall_seconds"] <= 0 {
			t.Errorf("record metrics = %v", rec.Metrics)
		}
	}
	if recs[0].Metrics["mcserve:iterations"] < 1 {
		t.Errorf("finished session recorded %v iterations", recs[0].Metrics["mcserve:iterations"])
	}
}

func TestServerMetrics(t *testing.T) {
	reg := telemetry.New()
	_, ts := newTestServer(t, Options{Metrics: reg})
	scriptSession(t, ts.URL, sessionBody)
	code, body := do(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"mc_serve_sessions_live",
		"mc_serve_sessions_created_total",
		`mc_serve_requests_total{code="200",route="join"}`,
		`mc_serve_request_seconds`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	// Session telemetry is private: pipeline series must NOT leak onto
	// the server registry.
	if bytes.Contains(body, []byte("mc_ssjoin_")) {
		t.Error("per-session pipeline series leaked onto the server registry")
	}
}
