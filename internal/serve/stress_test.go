package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSessions drives many complete debugging sessions in
// parallel against one server — live registries, tracers, and
// provenance recorders in every tenant — while background goroutines
// hammer the read-only routes. Run under -race (CI does) it is the
// isolation proof for the one-lock-domain-per-session design and for
// blocker.Run's per-call observers, which let tenants block in
// parallel with no shared lock; in any mode it asserts every tenant's
// canonical report is byte-identical to the serial reference, i.e.
// concurrency never bleeds state across sessions.
func TestConcurrentSessions(t *testing.T) {
	_, ref := newTestServer(t, Options{})
	want := scriptSession(t, ref.URL, sessionBody)

	const tenants = 6
	_, ts := newTestServer(t, Options{MaxSessions: tenants + 1})
	var wg sync.WaitGroup
	reports := make([][]byte, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = scriptSession(t, ts.URL, sessionBody)
		}(i)
	}
	// Read-only traffic interleaved with the sessions.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/healthz", "/readyz", "/v1/sessions", "/metrics"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	for i, got := range reports {
		if !bytes.Equal(got, want) {
			t.Errorf("tenant %d: report differs from the serial reference", i)
		}
	}
}

// TestConcurrentDriversOneSession points several goroutines at a single
// session — Next/Feedback racing with candidate pagination, reports, and
// explains — and checks the session survives as one consistent
// conversation: no torn iterations, and the final report is valid.
func TestConcurrentDriversOneSession(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL, sessionBody)
	su := ts.URL + "/v1/sessions/" + id
	do(t, "PUT", su+"/tables/a?name=A", tableACSV)
	do(t, "PUT", su+"/tables/b?name=B", tableBCSV)
	do(t, "POST", su+"/blocker", `{"attr_equals":["City"]}`)
	if code, body := do(t, "POST", su+"/join", ""); code != http.StatusOK {
		t.Fatalf("join: %d %s", code, body)
	}

	gold := goldSet()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				code, data := do(t, "POST", su+"/next", "")
				if code != http.StatusOK {
					return // another driver finished the session
				}
				var next struct {
					Pairs []shownPair `json:"pairs"`
					Done  bool        `json:"done"`
				}
				mustJSON(t, http.StatusOK, code, data, &next)
				if next.Done {
					return
				}
				labels := make([]string, len(next.Pairs))
				for j, p := range next.Pairs {
					labels[j] = fmt.Sprintf("%v", gold.Contains(p.A, p.B))
				}
				// A racing driver may have fed back first; 400 (stale
				// batch size) is acceptable, 5xx is not.
				code, _ = do(t, "POST", su+"/labels",
					fmt.Sprintf(`{"labels":[%s]}`, strings.Join(labels, ",")))
				if code >= 500 {
					t.Errorf("labels: status %d", code)
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				do(t, "GET", su+"/candidates?limit=10", "")
				do(t, "GET", su+"/report", "")
				do(t, "GET", su+"/explain?a=1&b=2", "")
			}
		}()
	}
	wg.Wait()
	if code, body := do(t, "POST", su+"/finish", ""); code != http.StatusOK {
		t.Fatalf("finish: %d %s", code, body)
	}
	code, body := do(t, "GET", su+"/report", "")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"table_a"`)) {
		t.Errorf("final report: %d %s", code, body)
	}
}
