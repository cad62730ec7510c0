// Package core assembles MatchCatcher's pipeline (Figure 2 of the paper):
// the Config Generator examines tables A and B; the joint top-k SSJ module
// finds, per config, the k killed-off pairs most similar under that
// config; and the Match Verifier engages the user over E (the union of the
// top-k lists) with rank aggregation and active/online learning until the
// stopping condition.
//
// The debugger is blocker independent: it takes only A, B, and the
// blocker's output C, never the blocker itself.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/feature"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// Options configures the three pipeline stages.
type Options struct {
	Config   config.Options
	Join     ssjoin.Options
	Verifier ranker.Options
	// Ctx cancels pipeline construction: New threads it into the joint
	// executor (ssjoin.Options.Ctx), so a request timeout or a client
	// disconnect aborts the joins at their next cancellation check and
	// New returns the context's error instead of a half-built session.
	// Nil means no cancellation (context.Background()).
	Ctx context.Context
	// Metrics receives pipeline telemetry (stage latencies, per-iteration
	// wall time, size gauges) and is propagated to the join and verifier
	// stages unless they carry their own registry. Nil selects
	// telemetry.Default(); telemetry.Disabled() switches it off.
	Metrics *telemetry.Registry
	// Trace collects the session's hierarchical span tree. Nil builds a
	// private tracer bridged to the registry, so Trace() always returns a
	// tree (export it with WriteChromeTrace / WriteTree). Spans ending on
	// the tracer also observe mc_stage_seconds, the flat per-stage
	// latency histograms.
	Trace *telemetry.Tracer
	// Logger receives structured progress records (stage completions,
	// iteration outcomes) correlated with the session's trace id. Nil
	// discards them.
	Logger *slog.Logger
	// Provenance, when non-nil and watching pairs, records every pipeline
	// decision that touches a watched pair: blocker keep/drop is recorded
	// when the same recorder is passed to blocker.Run; the join stage
	// records suppression by C, per-config score, and top-k rank; the
	// verifier records pool membership, aggregate rank, when the pair was
	// shown, and its label. Render the lineage with WriteExplainReport.
	Provenance *telemetry.Provenance
}

// Debugger is one debugging session for a blocker's output.
//
// A Debugger is safe to drive from multiple goroutines: all mutable
// session state (the verifier's pool, the iteration spans, the finish
// flag) lives under one mutex — one lock domain per session, the unit
// of isolation a session-hosting server needs. The immutable pipeline
// products built by New (tables, corpus, config tree, join lists) are
// read without the lock. Methods still form one logical conversation
// (Next then Feedback), so concurrent *drivers* of the same session
// interleave safely but see each other's iterations.
type Debugger struct {
	a, b *table.Table
	c    *blocker.PairSet

	res   *config.Result
	cor   *ssjoin.Corpus
	join  *ssjoin.JoinResult
	ext   *feature.Extractor
	verif *ranker.Verifier

	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	log    *slog.Logger
	prov   *telemetry.Provenance

	mu        sync.Mutex           //mc:lockrank 3 — the session's lock domain
	session   *telemetry.TraceSpan // root span of the whole session
	iterSpan  *telemetry.TraceSpan // current debug.iteration span
	iterStart time.Time            // set by Next, consumed by Feedback
	finished  bool                 // Finish called (idempotent)
}

// New builds a debugging session: it generates configs, runs the joint
// top-k SSJs against the candidate set c, and prepares the verifier.
// Every stage is traced into the registry's mc_stage_seconds histogram.
func New(a, b *table.Table, c *blocker.PairSet, opt Options) (*Debugger, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("core: both tables are required")
	}
	reg := telemetry.Or(opt.Metrics)
	if opt.Join.Metrics == nil {
		opt.Join.Metrics = reg
	}
	if opt.Verifier.Metrics == nil {
		opt.Verifier.Metrics = reg
	}
	tracer := opt.Trace
	if tracer == nil {
		tracer = telemetry.NewTracer(reg)
	}
	logg := telemetry.LoggerOr(opt.Logger)
	prov := opt.Provenance
	base := opt.Ctx
	if base == nil {
		base = context.Background()
	}
	if opt.Join.Ctx == nil {
		opt.Join.Ctx = base
	}

	session := tracer.Start("debug.session",
		telemetry.L("table_a", a.Name()),
		telemetry.L("table_b", b.Name()))
	ctx := telemetry.ContextWithSpan(base, session)

	csp := session.Child("config.generate")
	res, err := config.Generate(a, b, opt.Config)
	if err != nil {
		csp.End()
		session.End()
		return nil, fmt.Errorf("core: config generation: %w", err)
	}
	csp.SetAttrInt("promising_attrs", int64(len(res.Promising)))
	csp.End()
	logg.InfoContext(ctx, "configs generated", "promising_attrs", len(res.Promising))

	sp := session.Child("ssjoin.corpus")
	cor := ssjoin.NewCorpus(a, b, res)
	sp.End()

	jsp := session.Child("ssjoin.joinall")
	if opt.Join.Trace == nil {
		opt.Join.Trace = jsp
	}
	if opt.Join.Provenance == nil {
		opt.Join.Provenance = prov
	}
	join := ssjoin.JoinAll(cor, c, opt.Join)
	jsp.SetAttrInt("configs", int64(len(join.Lists)))
	jsp.End()
	if err := base.Err(); err != nil {
		// The joins aborted mid-flight; their lists are partial garbage.
		session.End()
		return nil, fmt.Errorf("core: join cancelled: %w", err)
	}
	logg.InfoContext(ctx, "joins complete",
		"configs", len(join.Lists),
		"scratch_scores", join.Stats.ScratchScores,
		"reused_scores", join.Stats.ReusedScores)

	vsp := session.Child("verifier.prepare")
	ext := feature.NewExtractor(cor)
	if opt.Verifier.Trace == nil {
		opt.Verifier.Trace = vsp
	}
	if opt.Verifier.Provenance == nil {
		opt.Verifier.Provenance = prov
	}
	verif := ranker.NewVerifier(join.Lists, ext.Vector, opt.Verifier)
	vsp.SetAttrInt("e_size", int64(verif.NumCandidates()))
	vsp.End()
	logg.InfoContext(ctx, "verifier ready", "e_size", verif.NumCandidates())

	d := &Debugger{
		a: a, b: b, c: c, res: res, cor: cor, join: join, ext: ext, verif: verif,
		reg: reg, tracer: tracer, session: session, log: logg, prov: prov,
	}
	reg.Gauge("mc_core_rows_a").Set(float64(a.NumRows()))
	reg.Gauge("mc_core_rows_b").Set(float64(b.NumRows()))
	reg.Gauge("mc_core_c_size").Set(float64(c.Len()))
	reg.Gauge("mc_core_configs").Set(float64(len(join.Lists)))
	reg.Gauge("mc_core_e_size").Set(float64(d.CandidateCount()))
	return d, nil
}

// Configs returns the config generation result.
func (d *Debugger) Configs() *config.Result { return d.res }

// Lists returns the per-config top-k lists in breadth-first order.
func (d *Debugger) Lists() []ssjoin.TopKList { return d.join.Lists }

// JoinStats returns the joint executor's statistics.
func (d *Debugger) JoinStats() ssjoin.Stats { return d.join.Stats }

// CandidateCount returns |E|, the number of distinct pairs across lists.
func (d *Debugger) CandidateCount() int { return d.verif.NumCandidates() }

// Ranking returns the verifier's current ranked view of the unlabeled
// candidate pool — the aggregate bootstrap order before the learner has
// both classes, the model's confidence order after. It re-sorts after
// every Feedback, so it is the "updated ranking" a session host pages
// through between iterations. The slice is the caller's to keep.
func (d *Debugger) Ranking() []blocker.Pair {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.verif.Ranking()
}

// Candidates returns E as a pair set.
func (d *Debugger) Candidates() *blocker.PairSet {
	e := blocker.NewPairSet()
	for _, l := range d.join.Lists {
		for _, p := range l.Pairs {
			e.Add(int(p.A), int(p.B))
		}
	}
	return e
}

// Next returns the next batch of pairs for the user to inspect (at most
// Verifier.N), or nil when the session has reached its stopping condition.
// Each Next opens a debug.iteration trace span; the matching Feedback
// closes it, so every round is one subtree under debug.session.
func (d *Debugger) Next() []blocker.Pair {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.finished {
		return nil
	}
	d.iterStart = time.Now()
	if d.iterSpan == nil && !d.verif.Done() {
		d.iterSpan = d.session.Child("debug.iteration")
		d.iterSpan.SetAttrInt("iteration", int64(d.verif.Iterations()+1))
		d.verif.SetTraceParent(d.iterSpan)
	}
	out := d.verif.Next()
	d.iterSpan.SetAttrInt("shown", int64(len(out)))
	return out
}

// Feedback records the user's labels for the pairs of the last Next call.
// One Next+Feedback round is one debugging iteration; its wall time rolls
// up into mc_core_iteration_seconds.
func (d *Debugger) Feedback(labels []bool) error {
	d.mu.Lock()
	if d.finished {
		d.mu.Unlock()
		return fmt.Errorf("core: Feedback after Finish")
	}
	before := len(d.verif.Matches())
	if err := d.verif.Feedback(labels); err != nil {
		d.mu.Unlock()
		return err
	}
	if !d.iterStart.IsZero() {
		d.reg.Histogram("mc_core_iteration_seconds").Observe(time.Since(d.iterStart).Seconds())
		d.iterStart = time.Time{}
	}
	iterations := d.verif.Iterations()
	total := len(d.verif.Matches())
	found := total - before
	d.reg.Gauge("mc_core_iterations").Set(float64(iterations))
	d.reg.Gauge("mc_core_matches_found").Set(float64(total))
	d.iterSpan.SetAttrInt("labels", int64(len(labels)))
	d.iterSpan.SetAttrInt("new_matches", int64(found))
	d.iterSpan.End()
	d.iterSpan = nil
	d.verif.SetTraceParent(d.session)
	session := d.session
	d.mu.Unlock()

	// Emit the log line after releasing d.mu: slog emission can block on
	// the sink, and nothing below reads guarded state (the session span
	// is immutable after New).
	ctx := telemetry.ContextWithSpan(context.Background(), session)
	d.log.InfoContext(ctx, "iteration complete",
		"iteration", iterations,
		"labels", len(labels),
		"new_matches", found,
		"total_matches", total)
	return nil
}

// Finish ends the session's root trace span. Call it when the
// interactive loop is over, before exporting the trace. Finish is
// idempotent: a second call (a server draining sessions it already
// closed, a CLI's deferred cleanup after an explicit Finish) is a
// no-op, and Next/Feedback after Finish are refused rather than
// re-opening spans under an ended session root.
func (d *Debugger) Finish() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.finishLocked()
}

func (d *Debugger) finishLocked() {
	if d.finished {
		return
	}
	d.finished = true
	// No nil guard: TraceSpan methods are nil-safe no-ops (mclint's
	// spanend analyzer flags redundant guards like the one this had).
	d.iterSpan.End()
	d.iterSpan = nil
	d.session.End()
}

// Finished reports whether Finish has been called.
func (d *Debugger) Finished() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.finished
}

// Trace returns the session's tracer (never nil): export its tree with
// WriteChromeTrace or WriteTree.
func (d *Debugger) Trace() *telemetry.Tracer { return d.tracer }

// Session returns the session's root trace span.
func (d *Debugger) Session() *telemetry.TraceSpan { return d.session }

// Provenance returns the session's provenance recorder (may be nil).
func (d *Debugger) Provenance() *telemetry.Provenance { return d.prov }

// Done reports whether the stopping condition has been reached.
func (d *Debugger) Done() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.verif.Done()
}

// Matches returns the killed-off true matches confirmed so far, as a
// copy the caller may keep across further iterations.
func (d *Debugger) Matches() []blocker.Pair {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]blocker.Pair(nil), d.verif.Matches()...)
}

// Iterations returns the number of completed feedback rounds.
func (d *Debugger) Iterations() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.verif.Iterations()
}

// Run drives the session to completion with a labeling function (e.g. the
// synthetic user oracle). It routes through the debugger's own Next and
// Feedback so every round carries iteration telemetry, and finishes the
// session's trace span when the stopping condition is reached.
func (d *Debugger) Run(label func(a, b int) bool) ranker.RunResult {
	res := ranker.Run(d, label)
	d.Finish()
	return res
}

// Pair value accessors for presentation layers.

// RowA returns tuple a of table A rendered as attr=value strings over the
// promising attributes.
func (d *Debugger) RowA(row int) []string { return d.renderRow(d.a, row) }

// RowB is RowA for table B.
func (d *Debugger) RowB(row int) []string { return d.renderRow(d.b, row) }

func (d *Debugger) renderRow(t *table.Table, row int) []string {
	out := make([]string, 0, len(d.res.Promising))
	for _, attr := range d.res.Promising {
		v, _ := t.ValueByName(row, attr)
		out = append(out, attr+"="+v)
	}
	return out
}
