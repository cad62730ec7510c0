package serve

import (
	"bytes"
	"strings"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/core"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// cliReport drives the exact pipeline mcdebug drives — same construction
// path (blocker.BuildFromRules + blocker.Run), same options,
// gold-labeled loop — and returns the canonical report bytes the CLI's
// -canonical -report flags would write.
func cliReport(t *testing.T) []byte {
	t.Helper()
	a, err := table.ReadCSV("A", strings.NewReader(tableACSV))
	if err != nil {
		t.Fatal(err)
	}
	b, err := table.ReadCSV("B", strings.NewReader(tableBCSV))
	if err != nil {
		t.Fatal(err)
	}
	q, err := blocker.BuildFromRules(nil, nil, []string{"City"})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	tracer := telemetry.NewTracer(reg)
	prov := telemetry.NewProvenance([2]int{1, 2})
	c, err := blocker.Run(q, a, b, nil, prov)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Metrics: reg, Trace: tracer, Provenance: prov}
	opt.Join.K = 100
	opt.Join.Workers = 1
	opt.Verifier.N = 3
	opt.Verifier.Seed = 1
	dbg, err := core.New(a, b, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	gold := goldSet()
	for !dbg.Done() {
		pairs := dbg.Next()
		if len(pairs) == 0 {
			break
		}
		labels := make([]bool, len(pairs))
		for i, p := range pairs {
			labels[i] = gold.Contains(p.A, p.B)
		}
		if err := dbg.Feedback(labels); err != nil {
			t.Fatal(err)
		}
	}
	dbg.Finish()
	var buf bytes.Buffer
	if err := dbg.WriteCanonicalReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHTTPReportMatchesCLIReport is the transport-determinism contract:
// a scripted HTTP session must produce a canonical report byte-identical
// to a CLI session given the same tables, rules, seed, and join options.
// Workers is pinned to 1 on both sides because the canonical report
// embeds JoinStats, whose work counters depend on the list-reuse handoff
// at Workers > 1: whether a child config starts from its parent's
// finished list or misses it and runs cold is timing (the ranked output
// never depends on it — see internal/ssjoin's determinism suite).
func TestHTTPReportMatchesCLIReport(t *testing.T) {
	want := cliReport(t)
	_, ts := newTestServer(t, Options{})
	got := scriptSession(t, ts.URL, sessionBody)
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP canonical report differs from the CLI's:\n--- HTTP ---\n%s\n--- CLI ---\n%s", got, want)
	}
}

// TestHTTPReportReproducible replays the same scripted session twice on
// one server: same seed, same bytes.
func TestHTTPReportReproducible(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	first := scriptSession(t, ts.URL, sessionBody)
	second := scriptSession(t, ts.URL, sessionBody)
	if !bytes.Equal(first, second) {
		t.Errorf("two same-seed HTTP sessions produced different reports:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}
