package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/oracle"
	"matchcatcher/internal/serve"
	"matchcatcher/internal/telemetry"
)

// loopback is an in-process serve.Server behind a real 127.0.0.1 TCP
// listener, and the keep-alive client the benchmark's tenants share.
type loopback struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startLoopback starts the server with default options and a client
// allowed one connection per concurrent tenant.
func startLoopback(clients int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen: %w", err)
	}
	srv := serve.New(serve.Options{})
	l := &loopback{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil, // loopback only, whatever the environment says
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop drains the HTTP server, finishes the sessions it still hosts, and
// waits for the serving goroutine to exit.
func (l *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.srv.BeginShutdown()
	_ = l.hs.Shutdown(ctx) // a timeout leaves nothing to clean that Close does not
	l.srv.Close()
	if err := <-l.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "loopback server: %v\n", err)
	}
	l.client.CloseIdleConnections()
}

// routeSample is one client-side request latency.
type routeSample struct {
	route string
	dur   time.Duration
}

// httpSession is one tenant's session from the client side. Each request
// is one operation; a transport error, a non-2xx answer or an undecodable
// body fails it and ends the session.
type httpSession struct {
	l    *loopback
	root *telemetry.TraceSpan
	r    *sessionResult
}

func (h *httpSession) do(route, method, path string, body []byte, out any) (time.Duration, bool) {
	sp := h.root.Child("serve." + route)
	start := time.Now()
	ok := h.roundTrip(method, path, body, out)
	d := time.Since(start)
	sp.End()
	h.r.ops++
	if !ok {
		h.r.failed++
	}
	h.r.routes = append(h.r.routes, routeSample{route, d})
	return d, ok
}

func (h *httpSession) roundTrip(method, path string, body []byte, out any) bool {
	req, err := http.NewRequest(method, h.l.base+path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	resp, err := h.l.client.Do(req)
	if err != nil {
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		h.r.non2xx++
		return false
	}
	if err != nil {
		return false
	}
	return out == nil || json.Unmarshal(data, out) == nil
}

type wirePair struct {
	A int `json:"a"`
	B int `json:"b"`
}

func toPairs(ws []wirePair) []blocker.Pair {
	out := make([]blocker.Pair, len(ws))
	for i, w := range ws {
		out[i] = blocker.Pair{A: w.A, B: w.B}
	}
	return out
}

// overHTTP runs one session as a tenant of the loopback server: create,
// upload both CSVs, set the blocker, join, next/labels until done, page
// through the ranked candidates, finish, fetch the report, delete. Its
// digest covers what the HTTP API shows, which is what the in-process
// reference session of the same rule folds in.
func (e *env) overHTTP(ri int, tr *telemetry.Tracer) sessionResult {
	r := sessionResult{rule: ri}
	rl := e.w.rules[ri]
	h := &httpSession{
		l:    e.srv,
		root: tr.Start("session", telemetry.L("workload", e.w.name), telemetry.L("rule", rl.label)),
		r:    &r,
	}
	d := newDigest()
	user := oracle.New(e.data.Gold, 0, e.seed)

	start := time.Now()
	e.httpSteps(h, d, user, rl)
	r.wall = time.Since(start)
	h.root.End()
	r.traceID = h.root.TraceID()
	r.digest = d.sum()
	return r
}

func (e *env) httpSteps(h *httpSession, d *digest, user *oracle.User, rl rule) {
	// Marshalling maps of numbers, strings and bools cannot fail.
	r := h.r
	create, _ := json.Marshal(map[string]any{"seed": e.seed, "k": topK, "n": batchN})
	var info struct {
		ID string `json:"id"`
	}
	if _, ok := h.do("create", http.MethodPost, "/v1/sessions", create, &info); !ok {
		return
	}
	base := "/v1/sessions/" + info.ID
	// Whatever happens below, the tenant leaves no session behind.
	deleted := false
	defer func() {
		if !deleted {
			h.roundTrip(http.MethodDelete, base, nil, nil)
		}
	}()

	if _, ok := h.do("tables_put", http.MethodPut, base+"/tables/a?name="+e.data.A.Name(), e.csvA, nil); !ok {
		return
	}
	if _, ok := h.do("tables_put", http.MethodPut, base+"/tables/b?name="+e.data.B.Name(), e.csvB, nil); !ok {
		return
	}
	rules, _ := json.Marshal(map[string][]string{"drops": rl.drops, "keeps": rl.keeps})
	blk, ok := h.do("blocker", http.MethodPost, base+"/blocker", rules, nil)
	if !ok {
		return
	}
	var joined struct {
		Configs    int `json:"configs"`
		Candidates int `json:"e_size"`
	}
	join, ok := h.do("join", http.MethodPost, base+"/join", nil, &joined)
	if !ok {
		return
	}
	d.join(joined.Configs, joined.Candidates)
	var next struct {
		Pairs []wirePair `json:"pairs"`
		Done  bool       `json:"done"`
	}
	first, ok := h.do("next", http.MethodPost, base+"/next", nil, &next)
	if !ok {
		return
	}
	r.firstBatch = blk + join + first
	for !next.Done && len(next.Pairs) > 0 {
		batch := toPairs(next.Pairs)
		labels := label(user, batch)
		d.batch(batch, labels)
		r.shown += len(batch)
		body, _ := json.Marshal(map[string][]bool{"labels": labels})
		lt, ok := h.do("labels", http.MethodPost, base+"/labels", body, nil)
		if !ok {
			return
		}
		if len(r.iters)+1 == e.w.rounds {
			// The user stops here; in-process, MaxIterations ends the
			// session at the same round.
			r.iters = append(r.iters, lt)
			break
		}
		next.Pairs, next.Done = nil, false
		nt, ok := h.do("next", http.MethodPost, base+"/next", nil, &next)
		if !ok {
			return
		}
		r.iters = append(r.iters, lt+nt)
	}
	var ranked []blocker.Pair
	for i := 0; i < pages; i++ {
		var page struct {
			Pairs []wirePair `json:"pairs"`
		}
		path := fmt.Sprintf("%s/candidates?offset=%d&limit=%d", base, i*pageSize, pageSize)
		if _, ok := h.do("candidates", http.MethodGet, path, nil, &page); !ok {
			return
		}
		ranked = append(ranked, toPairs(page.Pairs)...)
	}
	d.pages(ranked)
	if _, ok := h.do("finish", http.MethodPost, base+"/finish", nil, nil); !ok {
		return
	}
	var report struct {
		Configs    int `json:"configs"`
		Candidates int `json:"e_size"`
		Iterations int `json:"iterations"`
		Matches    []struct {
			A int `json:"a_row"`
			B int `json:"b_row"`
		} `json:"matches"`
	}
	if _, ok := h.do("report", http.MethodGet, base+"/report", nil, &report); !ok {
		return
	}
	matches := make([]blocker.Pair, len(report.Matches))
	for i, m := range report.Matches {
		matches[i] = blocker.Pair{A: m.A, B: m.B}
	}
	d.final(matches, report.Iterations)
	r.configs, r.candidates = report.Configs, report.Candidates
	r.iterations, r.matches = report.Iterations, len(matches)
	h.do("delete", http.MethodDelete, base, nil, nil)
	deleted = true
}
