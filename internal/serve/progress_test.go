package serve

// Tests for the join progress surface: the JSON snapshot endpoint, the
// SSE stream (mid-join frames, clean terminal frame, teardown on client
// disconnect and on join cancellation), and the determinism contract
// that streaming progress does not perturb the canonical report.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"matchcatcher/internal/datagen"
)

// progressTables generates a table pair big enough that its join runs
// for several hundred milliseconds on one core — long enough for an SSE
// client to observe genuinely mid-join frames.
func progressTables(t *testing.T) (aCSV, bCSV string) {
	t.Helper()
	d := datagen.MustGenerate(datagen.Profile{
		Name: "sse", RowsA: 2500, RowsB: 2500, Matches: 600,
		VocabSize: 400, Seed: 9, GoldKnown: true,
		Fields: []datagen.FieldSpec{
			{Name: "Title", Kind: datagen.FieldPhrase, MinWords: 6, MaxWords: 12},
			{Name: "City", Kind: datagen.FieldPool, PoolSize: 15, PoolVariants: 0.3, BVariantProb: 0.3},
			{Name: "Age", Kind: datagen.FieldInt, Lo: 18, Hi: 80},
		},
	})
	var a, b bytes.Buffer
	if err := d.A.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.B.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return a.String(), b.String()
}

// prepareJoinable creates a session and walks it to the blocked state.
func prepareJoinable(t *testing.T, base, createBody, aCSV, bCSV string) string {
	t.Helper()
	id := createSession(t, base, createBody)
	su := base + "/v1/sessions/" + id
	code, data := do(t, "PUT", su+"/tables/a?name=A", aCSV)
	mustJSON(t, http.StatusOK, code, data, nil)
	code, data = do(t, "PUT", su+"/tables/b?name=B", bCSV)
	mustJSON(t, http.StatusOK, code, data, nil)
	code, data = do(t, "POST", su+"/blocker", `{"attr_equals":["City"]}`)
	mustJSON(t, http.StatusOK, code, data, nil)
	return id
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  progressResponse
}

// readSSE parses an event-stream body into frames until EOF or error.
func readSSE(t *testing.T, body io.Reader, frames chan<- sseFrame) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			var resp progressResponse
			if err := json.Unmarshal([]byte(data), &resp); err != nil {
				t.Errorf("bad SSE data for event %q: %v\n%s", event, err, data)
			}
			frames <- sseFrame{event: event, data: resp}
			event, data = "", ""
		}
	}
	close(frames)
}

// openSSE issues the progress request with the event-stream Accept
// header and returns the frame channel plus the response closer.
func openSSE(t *testing.T, ctx context.Context, url string) (<-chan sseFrame, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("SSE status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	frames := make(chan sseFrame, 1024)
	go readSSE(t, resp.Body, frames)
	return frames, func() { resp.Body.Close() }
}

const progressSessionBody = `{"seed":1,"k":500,"n":3,"workers":1}`

// TestProgressEndpointLifecycle drives the full surface on one session:
// 409 before any join, mid-join JSON and SSE frames observed from a
// second goroutine while the join request runs, a clean terminal frame,
// and a final-state snapshot after completion.
func TestProgressEndpointLifecycle(t *testing.T) {
	aCSV, bCSV := progressTables(t)
	_, ts := newTestServer(t, Options{ProgressInterval: 2 * time.Millisecond})
	id := prepareJoinable(t, ts.URL, progressSessionBody, aCSV, bCSV)
	su := ts.URL + "/v1/sessions/" + id

	// Before any join attempt the endpoint answers 409, like every
	// other join-dependent route.
	if code, _ := do(t, "GET", su+"/progress", ""); code != http.StatusConflict {
		t.Fatalf("progress before join: status %d, want 409", code)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var joinCode int
	go func() {
		defer wg.Done()
		joinCode, _ = do(t, "POST", su+"/join", "")
	}()
	t.Cleanup(wg.Wait)

	// Poll the JSON endpoint until the join attempt is visible.
	var snap progressResponse
	for {
		code, data := do(t, "GET", su+"/progress", "")
		if code == http.StatusOK {
			mustJSON(t, http.StatusOK, code, data, &snap)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if snap.Session != id {
		t.Errorf("snapshot session = %q, want %q", snap.Session, id)
	}

	// Stream until the terminal frame, counting what we saw.
	frames, closeStream := openSSE(t, context.Background(), su+"/progress")
	defer closeStream()
	var midJoin, total int
	var terminal *sseFrame
	for f := range frames {
		switch f.event {
		case "progress":
			total++
			if f.data.Joining && !f.data.Join.Done {
				midJoin++
			}
		case "done":
			terminal = &f
		default:
			t.Errorf("unexpected SSE event %q", f.event)
		}
		if terminal != nil {
			break
		}
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal done frame")
	}
	if total == 0 {
		t.Error("no progress frames before the terminal frame")
	}
	if midJoin == 0 {
		t.Error("no mid-join frames: the stream never observed the running join")
	}
	fin := terminal.data
	if fin.Joining {
		t.Error("terminal frame still marked joining")
	}
	if !fin.Join.Done || fin.Join.Cancelled {
		t.Errorf("terminal frame join state: done=%v cancelled=%v", fin.Join.Done, fin.Join.Cancelled)
	}
	if fin.Join.Fraction != 1 {
		t.Errorf("terminal fraction = %v, want 1", fin.Join.Fraction)
	}
	if fin.Join.ProbesDone != fin.Join.ProbesTotal {
		t.Errorf("terminal accounting: done %d != total %d", fin.Join.ProbesDone, fin.Join.ProbesTotal)
	}
	if fin.Join.Samples == 0 {
		t.Errorf("terminal frame counts no progress samples: %+v", fin.Join)
	}

	wg.Wait()
	if joinCode != http.StatusOK {
		t.Fatalf("join status = %d", joinCode)
	}
	// After completion the JSON endpoint answers the final snapshot.
	code, data := do(t, "GET", su+"/progress", "")
	mustJSON(t, http.StatusOK, code, data, &snap)
	if snap.State != "joined" || snap.Joining || !snap.Join.Done {
		t.Errorf("post-join snapshot = state %q joining %v done %v", snap.State, snap.Joining, snap.Join.Done)
	}
}

// TestProgressSSEClientDisconnect cancels the streaming client mid-join
// and checks the stream tears down while the join runs to completion
// undisturbed.
func TestProgressSSEClientDisconnect(t *testing.T) {
	aCSV, bCSV := progressTables(t)
	_, ts := newTestServer(t, Options{ProgressInterval: 2 * time.Millisecond})
	id := prepareJoinable(t, ts.URL, progressSessionBody, aCSV, bCSV)
	su := ts.URL + "/v1/sessions/" + id

	var wg sync.WaitGroup
	wg.Add(1)
	var joinCode int
	go func() {
		defer wg.Done()
		joinCode, _ = do(t, "POST", su+"/join", "")
	}()
	t.Cleanup(wg.Wait)
	for {
		if code, _ := do(t, "GET", su+"/progress", ""); code == http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	frames, closeStream := openSSE(t, ctx, su+"/progress")
	defer closeStream()
	// One live frame proves the stream was up; then hang up.
	if _, ok := <-frames; !ok {
		t.Fatal("stream closed before the first frame")
	}
	cancel()
	// The reader goroutine must see the stream end promptly (the handler
	// noticed ctx.Done and returned; the transport closed the body).
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-frames:
			if !ok {
				goto torndown
			}
		case <-deadline:
			t.Fatal("stream did not tear down after client disconnect")
		}
	}
torndown:
	wg.Wait()
	if joinCode != http.StatusOK {
		t.Fatalf("join after disconnected stream: status %d", joinCode)
	}
	var snap progressResponse
	code, data := do(t, "GET", su+"/progress", "")
	mustJSON(t, http.StatusOK, code, data, &snap)
	if !snap.Join.Done || snap.Join.Fraction != 1 {
		t.Errorf("join hurt by client disconnect: %+v", snap.Join)
	}
}

// TestProgressSSEJoinCancelled cancels the join request mid-flight: the
// SSE stream must receive its terminal frame (the join attempt ended,
// albeit unsuccessfully) and the session must fall back to blocked,
// ready for another join.
func TestProgressSSEJoinCancelled(t *testing.T) {
	aCSV, bCSV := progressTables(t)
	_, ts := newTestServer(t, Options{ProgressInterval: 2 * time.Millisecond})
	id := prepareJoinable(t, ts.URL, progressSessionBody, aCSV, bCSV)
	su := ts.URL + "/v1/sessions/" + id

	joinCtx, cancelJoin := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := http.NewRequestWithContext(joinCtx, "POST", su+"/join", nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			// The cancel may lose the race and let the join finish; the
			// test below tolerates either outcome.
			resp.Body.Close()
		}
	}()
	t.Cleanup(wg.Wait)
	for {
		if code, _ := do(t, "GET", su+"/progress", ""); code == http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}

	frames, closeStream := openSSE(t, context.Background(), su+"/progress")
	defer closeStream()
	if _, ok := <-frames; !ok {
		t.Fatal("stream closed before the first frame")
	}
	cancelJoin()

	deadline := time.After(10 * time.Second)
	var terminal *sseFrame
	for terminal == nil {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("stream closed without a terminal frame")
			}
			if f.event == "done" {
				terminal = &f
			}
		case <-deadline:
			t.Fatal("no terminal frame after join cancellation")
		}
	}
	if terminal.data.Joining {
		t.Error("terminal frame still marked joining")
	}
	wg.Wait()
	// Whichever way the race went, the session settles in a consistent
	// state: blocked again (join aborted) or joined (cancel too late).
	var info sessionInfo
	code, data := do(t, "GET", su, "")
	mustJSON(t, http.StatusOK, code, data, &info)
	switch info.State {
	case "blocked":
		if terminal.data.Join.Done && !terminal.data.Join.Cancelled {
			t.Errorf("aborted join's terminal frame claims a clean finish: %+v", terminal.data.Join)
		}
		// The session accepts a fresh join after the aborted attempt.
		if code, _ := do(t, "POST", su+"/join", ""); code != http.StatusOK {
			t.Errorf("re-join after cancelled join: status %d", code)
		}
	case "joined":
		if !terminal.data.Join.Done {
			t.Errorf("completed join's terminal frame not done: %+v", terminal.data.Join)
		}
	default:
		t.Errorf("session state after cancelled join = %q", info.State)
	}
}

// TestReportIdenticalWithProgressStreaming is the observer-effect
// contract end to end: a session whose join was watched by a live SSE
// stream produces a canonical report byte-identical to an unwatched
// session's.
func TestReportIdenticalWithProgressStreaming(t *testing.T) {
	_, ts := newTestServer(t, Options{ProgressInterval: time.Millisecond})
	want := scriptSession(t, ts.URL, sessionBody)

	// Second run: same script, but with an SSE stream attached from
	// before the join until its terminal frame.
	id := createSession(t, ts.URL, sessionBody)
	su := ts.URL + "/v1/sessions/" + id
	gold := goldSet()
	code, data := do(t, "PUT", su+"/tables/a?name=A", tableACSV)
	mustJSON(t, http.StatusOK, code, data, nil)
	code, data = do(t, "PUT", su+"/tables/b?name=B", tableBCSV)
	mustJSON(t, http.StatusOK, code, data, nil)
	code, data = do(t, "POST", su+"/blocker", `{"attr_equals":["City"]}`)
	mustJSON(t, http.StatusOK, code, data, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Poll until the join attempt is visible, then stream it.
		for {
			if code, _ := do(t, "GET", su+"/progress", ""); code == http.StatusOK {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		frames, closeStream := openSSE(t, context.Background(), su+"/progress")
		defer closeStream()
		for f := range frames {
			if f.event == "done" {
				return
			}
		}
	}()
	code, data = do(t, "POST", su+"/join", "")
	mustJSON(t, http.StatusOK, code, data, nil)
	wg.Wait()

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
	code, got := do(t, "GET", su+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("report status = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical report differs when an SSE progress stream watched the join:\n--- watched ---\n%s\n--- unwatched ---\n%s", got, want)
	}
}

// TestWantsEventStream pins the Accept-header sniffing.
func TestWantsEventStream(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"application/json", false},
		{"text/event-stream", true},
		{"text/event-stream; charset=utf-8", true},
		{"application/json, text/event-stream", true},
		{"text/html,application/xhtml+xml", false},
	}
	for _, c := range cases {
		r, _ := http.NewRequest("GET", "/", nil)
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		if got := wantsEventStream(r); got != c.want {
			t.Errorf("wantsEventStream(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}
