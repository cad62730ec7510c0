package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"matchcatcher/internal/table"
)

// sessionOf returns the server's session with the given id.
func sessionOf(t *testing.T, s *Server, id string) *session {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		t.Fatalf("no session %s", id)
	}
	return sess
}

// memUsed reports the session's charged upload bytes.
func memUsed(sess *session) int64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.memUsed
}

// TestUploadStreamedBudget pins the streamed upload's edges: a body of
// exactly the remaining budget is accepted, one byte more is a 413 and
// a malformed CSV a 400, neither charging anything; the charge equals
// the bytes read, and the table equals table.ReadCSV of the same bytes.
func TestUploadStreamedBudget(t *testing.T) {
	budget := int64(len(tableACSV) + len(tableBCSV))
	s, ts := newTestServer(t, Options{SessionMemBudget: budget})
	id := createSession(t, ts.URL, "")
	su := ts.URL + "/v1/sessions/" + id
	sess := sessionOf(t, s, id)

	if code, body := do(t, "PUT", su+"/tables/a?name=A", "Name,City\nx\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed CSV: status %d, want 400: %s", code, body)
	}
	code, body := do(t, "PUT", su+"/tables/a?name=A", tableACSV)
	mustJSON(t, http.StatusOK, code, body, nil)
	if got := memUsed(sess); got != int64(len(tableACSV)) {
		t.Fatalf("memUsed = %d after a %d-byte upload", got, len(tableACSV))
	}
	want, err := table.ReadCSV("A", strings.NewReader(tableACSV))
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	got := sess.a
	sess.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed table %v differs from table.ReadCSV's %v", got, want)
	}

	// tableBCSV is exactly the remaining budget; one more byte is over.
	over := strings.Replace(tableBCSV, ",45\n", ",450\n", 1)
	if code, body := do(t, "PUT", su+"/tables/b?name=B", over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload of remaining+1 bytes: status %d, want 413: %s", code, body)
	}
	if got := memUsed(sess); got != int64(len(tableACSV)) {
		t.Fatalf("memUsed = %d after a refused upload, want %d", got, len(tableACSV))
	}
	code, body = do(t, "PUT", su+"/tables/b?name=B", tableBCSV)
	mustJSON(t, http.StatusOK, code, body, nil)
	if got := memUsed(sess); got != budget {
		t.Fatalf("memUsed = %d after uploading exactly the budget %d", got, budget)
	}
}

// TestUploadIgnoresContentLength: a body that claims 60 MiB but carries
// a small table allocates no more than the same body sent honestly, so
// a forged header cannot make the server reserve the budget.
func TestUploadIgnoresContentLength(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	upload := func(claimed int64) uint64 {
		id := createSession(t, ts.URL, "")
		req := httptest.NewRequest("PUT", "/v1/sessions/"+id+"/tables/a?name=A", strings.NewReader(tableACSV))
		req.ContentLength = claimed
		req.Header.Set("Content-Length", "62914560")
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	upload(int64(len(tableACSV))) // warm the pools and the handler
	honest := upload(int64(len(tableACSV)))
	forged := upload(60 << 20)
	if forged > honest+256<<10 {
		t.Fatalf("forged Content-Length upload allocated %d bytes, honest %d", forged, honest)
	}
}

// TestWriteJSONBytes pins writeJSON to json.MarshalIndent plus a newline
// for the shapes the handlers answer, and checks that a buffer grown
// past maxPooledJSON is not kept.
func TestWriteJSONBytes(t *testing.T) {
	pairs := make([]pairJSON, 1500) // over the pool cap once indented
	for i := range pairs {
		pairs[i] = pairJSON{A: i, B: 2 * i}
	}
	for name, v := range map[string]any{
		"next": map[string]any{"iteration": 3, "done": false, "pairs": []shownPair{
			{A: 1, B: 2, ValuesA: []string{"Dave <Smith>", "LA & co"}, ValuesB: []string{" ", ""}},
		}},
		"candidates": map[string]any{"total": 7, "offset": 0, "pairs": pairs[:3]},
		"empty page": map[string]any{"total": 7, "offset": 7, "pairs": []pairJSON{}},
		"labels":     map[string]any{"iterations": 2, "matches_found": 1, "done": true},
		"session":    sessionInfo{ID: "s000001", State: "joined", K: 100, N: 3},
		"error":      map[string]string{"error": `bad request body: "x"`},
		"large":      map[string]any{"total": len(pairs), "offset": 0, "pairs": pairs},
	} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		for range 2 { // a fresh and a reused buffer
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusTeapot, v)
			if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s: status %d, content type %q", name, rec.Code, rec.Header().Get("Content-Type"))
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: writeJSON wrote\n%s\nwant\n%s", name, rec.Body.Bytes(), want)
			}
		}
	}

	b := jsonBufs.Get().(*jsonBuf)
	b.buf.Grow(2 * maxPooledJSON)
	releaseJSON(b)
	for range 20 {
		if got := jsonBufs.Get().(*jsonBuf); got == b {
			t.Fatal("a buffer over maxPooledJSON went back to the pool")
		}
	}
}

// TestReportAndPageBytes pins the report body to json.MarshalIndent of
// the session's canonical report, and the candidates pages, before and
// after a round of labels, to the Debugger's ranking.
func TestReportAndPageBytes(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL, `{"seed":1,"k":100,"n":1,"workers":1}`)
	su := ts.URL + "/v1/sessions/" + id
	for _, step := range [][3]string{
		{"PUT", "/tables/a?name=A", tableACSV},
		{"PUT", "/tables/b?name=B", tableBCSV},
		{"POST", "/blocker", `{"attr_equals":["City"]}`},
		{"POST", "/join", ""},
	} {
		code, body := do(t, step[0], su+step[1], step[2])
		mustJSON(t, http.StatusOK, code, body, nil)
	}
	dbg := sessionOf(t, s, id).debugger()
	checkPages := func() {
		t.Helper()
		ranking := dbg.Ranking()
		if len(ranking) < 2 {
			t.Fatalf("ranking holds %d pairs, too few to page", len(ranking))
		}
		var got []pairJSON
		for off := 0; ; off++ {
			code, body := do(t, "GET", fmt.Sprintf("%s/candidates?offset=%d&limit=1", su, off), "")
			var page struct {
				Total  int        `json:"total"`
				Offset int        `json:"offset"`
				Pairs  []pairJSON `json:"pairs"`
			}
			mustJSON(t, http.StatusOK, code, body, &page)
			if page.Total != len(ranking) || page.Offset != min(off, len(ranking)) {
				t.Fatalf("page at %d: total %d offset %d, ranking holds %d", off, page.Total, page.Offset, len(ranking))
			}
			if len(page.Pairs) == 0 {
				break
			}
			got = append(got, page.Pairs...)
		}
		if len(got) != len(ranking) {
			t.Fatalf("pages hold %d pairs, ranking %d", len(got), len(ranking))
		}
		for i, p := range ranking {
			if got[i] != (pairJSON{A: p.A, B: p.B}) {
				t.Fatalf("page pair %d = %+v, ranking has %+v", i, got[i], p)
			}
		}
	}
	checkPages()
	code, body := do(t, "POST", su+"/next", "")
	var next struct {
		Pairs []shownPair `json:"pairs"`
	}
	mustJSON(t, http.StatusOK, code, body, &next)
	gold := goldSet()
	labels := make([]bool, len(next.Pairs))
	for i, p := range next.Pairs {
		labels[i] = gold.Contains(p.A, p.B)
	}
	lb, _ := json.Marshal(map[string][]bool{"labels": labels})
	code, body = do(t, "POST", su+"/labels", string(lb))
	mustJSON(t, http.StatusOK, code, body, nil)
	checkPages()

	code, body = do(t, "POST", su+"/finish", "")
	mustJSON(t, http.StatusOK, code, body, nil)
	code, report := do(t, "GET", su+"/report", "")
	want, err := json.MarshalIndent(dbg.CanonicalReport(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !bytes.Equal(report, append(want, '\n')) {
		t.Fatalf("report (status %d) differs from MarshalIndent of the canonical report:\n%s", code, report)
	}
}
