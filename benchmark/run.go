package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/runlog"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

const (
	// setupReps is how many times a timed run sets its workload up, each
	// set-up serving its share of the measured loop; setup_s is the
	// median, so one slow set-up does not move it.
	setupReps = 3
	// tracePairs bounds the traced run's (untraced, traced) in-process
	// session pairs; the tracing overhead is their median difference.
	tracePairs = 4
	// soloReps repeats each layer call timed alone.
	soloReps = 3
	// maxHarnessShare is the accounting check: the traced layer calls
	// must cover all but this share of a session's wall time.
	maxHarnessShare = 0.05
)

// runConfig is one workload run's settings.
type runConfig struct {
	seed     int64
	seconds  int // time box of the measured sessions; 0 runs the workload's fixed count
	trace    bool
	traceOut string // directory for the Chrome trace of traced runs
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report accumulates a run's metrics, checks and human-readable lines.
type report struct {
	out     io.Writer
	res     result
	problem []string
}

func (r *report) set(name string, v float64) {
	unit := "?"
	if d, ok := metricByName(name); ok {
		unit = d.unit
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.problem = append(r.problem, fmt.Sprintf(format, args...))
}

// line prints one metric's distribution: its unit, sample count, median
// and quartiles, and the tails that have enough samples beyond them.
func (r *report) line(name, unit string, samples []float64) {
	d := summarize(samples)
	s := fmt.Sprintf("  %-34s %-6s n=%-5d p50=%-11.5g q1=%-11.5g q3=%-11.5g", name, unit, d.N, d.P50, d.Q1, d.Q3)
	if d.HasP90 {
		s += fmt.Sprintf(" p90=%.5g", d.P90)
	}
	if d.HasP99 {
		s += fmt.Sprintf(" p99=%.5g", d.P99)
	}
	fmt.Fprintln(r.out, s)
}

// budget returns the stop rule of a closed loop: a time box when seconds
// is set, otherwise a fixed number of sessions. The time box only stops
// new sessions; the first one always runs.
func budget(seconds float64, count int) func(i int) bool {
	if seconds > 0 {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		return func(i int) bool { return i == 0 || time.Now().Before(deadline) }
	}
	return func(i int) bool { return i < count }
}

// closedLoop runs sessions from clients concurrent clients, each starting
// its next session when the last one returns, until more refuses. It
// notes each session's allocation, which is that session's own only when
// there is one client.
func closedLoop(clients int, more func(i int) bool, run func(i int) sessionResult) ([]sessionResult, time.Duration, usage) {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sessionResult
	var wg sync.WaitGroup
	before, start := readUsage(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !more(i) {
					return
				}
				at := readAllocs()
				r := run(i)
				r.allocBytes = readAllocs() - at
				mu.Lock()
				all = append(all, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all, time.Since(start), readUsage().since(before)
}

// check compares every session's digest with its rule's reference and
// adds the sessions' operations, the checks included, to the result.
func (r *report) check(e *env, sessions []sessionResult) {
	for _, s := range sessions {
		r.res.Attempted += s.ops + 1
		r.res.Failed += s.failed
		if s.failed == 0 && s.digest != e.ref[s.rule] {
			r.res.Failed++
			r.fail("session on rule %s: digest %.12s, reference %.12s", e.w.rules[s.rule].label, s.digest, e.ref[s.rule])
		}
	}
}

// runWorkload sets a workload up and measures it, printing a table of
// every metric and returning the result line. A timed run reports the
// end-to-end metrics; a traced run (cfg.trace) reports the per-layer ones.
func runWorkload(w workload, cfg runConfig, out io.Writer) (result, error) {
	fp := runlog.CaptureFingerprint()
	fmt.Fprintf(out, "== %s seed=%d trace=%v nproc=%d cpu=%q %s\n", w.name, cfg.seed, cfg.trace, fp.NumCPU, fp.CPU, fp.GoVersion)
	rep := &report{out: out, res: result{Correct: true, Metrics: map[string]metricValue{}}}
	want := endToEnd
	var err error
	if cfg.trace {
		want = perLayer
		err = rep.traced(w, cfg)
	} else {
		err = rep.timed(w, cfg)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rep.keep(want)
	for _, p := range rep.problem {
		fmt.Fprintf(out, "   CHECK FAILED: %s\n", p)
	}
	rep.res.Correct = len(rep.problem) == 0 && rep.res.Failed == 0
	return rep.res, nil
}

// keep drops every metric the run's mode does not report and prints the
// ones it does. A listed metric the run did not produce is a failed check.
func (r *report) keep(list []metricDef) {
	kept := map[string]metricValue{}
	for _, d := range list {
		m, ok := r.res.Metrics[d.name]
		if !ok {
			r.fail("metric %s was not measured", d.name)
			continue
		}
		kept[d.name] = m
		fmt.Fprintf(r.out, "  %-34s %-6s %.6g\n", d.name, d.unit, m.Value)
	}
	r.res.Metrics = kept
	fmt.Fprintf(r.out, "  %-34s %-6s %d/%d\n", "failed_ratio", "ratio", r.res.Failed, r.res.Attempted)
}

// describe prints a set-up's input and load.
func (r *report) describe(e *env) {
	p := e.data.Profile
	fmt.Fprintf(r.out, "   input %s x%g (%dx%d, %.1fM pairs), rules %d, %d client(s)\n",
		p.Name, e.w.scale, p.RowsA, p.RowsB, float64(p.RowsA)*float64(p.RowsB)/1e6, len(e.w.rules), e.w.clients)
}

// timed runs the workload's closed loop untraced, for the end-to-end
// metrics. It sets the workload up setupReps times, one after another,
// and runs an equal share of the loop on each set-up, so the set-ups
// sample the host's drifting speed at as many moments of the run rather
// than at one. Each set-up is dropped and the heap collected before the
// next, so no two set-ups' data are ever alive together, and the warm-up
// sessions of all of them must agree.
func (r *report) timed(w workload, cfg runConfig) error {
	var setups []float64
	var ref []string
	var sessions []sessionResult
	var wall time.Duration
	var use usage
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			runtime.GC()
		}
		e, err := newEnv(w, cfg.seed)
		if err != nil {
			return err
		}
		if k == 0 {
			r.describe(e)
		} else if !slices.Equal(ref, e.ref) {
			e.close()
			return fmt.Errorf("warm-up sessions disagree between set-ups of one seed")
		}
		setups, ref = append(setups, e.setup.Seconds()), e.ref
		first := len(sessions)
		count := w.sessions*(k+1)/setupReps - w.sessions*k/setupReps
		share, shareWall, shareUse := closedLoop(w.clients, budget(float64(cfg.seconds)/setupReps, count),
			func(i int) sessionResult { return e.session(first+i, nil) })
		e.close()
		r.check(e, share)
		sessions, wall, use = append(sessions, share...), wall+shareWall, use.plus(shareUse)
	}
	r.line("setup_s", "s", setups)
	r.set("setup_s", median(setups))
	r.loopOutcome(w, sessions, wall, use)
	return nil
}

// loopOutcome reports what a workload's own closed loop shows: the waits,
// throughput, allocation, memory, GC and CPU per session, and matches
// found.
func (r *report) loopOutcome(w workload, sessions []sessionResult, wall time.Duration, use usage) {
	n := float64(len(sessions))
	var first, iters, walls, matches []float64
	for _, s := range sessions {
		first = append(first, s.firstBatch.Seconds())
		iters = append(iters, millis(s.iters)...)
		walls = append(walls, s.wall.Seconds())
		matches = append(matches, float64(s.matches))
	}
	fmt.Fprintf(r.out, "   %d sessions in %.1fs\n", len(sessions), wall.Seconds())
	r.line("first_batch_s", "s", first)
	r.line("iteration_ms", "ms", iters)
	r.line("session_s", "s", walls)
	r.line("matches_found", "count", matches)
	r.set("first_batch_s.p50", ruleMedian(sessions, func(s sessionResult) float64 { return s.firstBatch.Seconds() }))
	r.set("iteration_ms.p50", ruleMedian(sessions, func(s sessionResult) float64 { return mean(millis(s.iters)) }))
	r.set("session_s.p50", ruleMedian(sessions, func(s sessionResult) float64 { return s.wall.Seconds() }))
	r.set("sessions_per_s", n/wall.Seconds())
	r.set("alloc_mb_per_session", allocPerSession(w.clients, sessions, use)/(1<<20))
	r.set("peak_rss_mb", peakRSSMB())
	r.set("matches_found", median(matches))
	r.set("runtime.gc_cycles_per_session", float64(use.gcCycles)/n)
	r.set("runtime.gc_cpu_s_per_session", use.gcCPU/n)
	r.set("process.cpu_s_per_session", use.cpu.Seconds()/n)
}

// allocPerSession is the bytes a typical session allocates. With one
// client it is the median of the sessions' own allocations: whether the
// join's pooled probe buffers survive from one session to the next
// depends on when the collector ran, which moves single m2-dense sessions
// by 30 or 60 MB, so a mean over one run's sessions follows how often that
// happened. Concurrent tenants' allocations cannot be told apart, so with
// more clients it is the loop's allocation divided by its sessions.
func allocPerSession(clients int, sessions []sessionResult, use usage) float64 {
	if clients > 1 {
		return float64(use.allocBytes) / float64(len(sessions))
	}
	var per []float64
	for _, s := range sessions {
		per = append(per, float64(s.allocBytes))
	}
	return median(per)
}

// ruleMedian is the median of get over each rule's sessions, averaged
// over the rules. Rules cost very different amounts, so the median of a
// pooled mix would jump between rules as their session counts drift by
// one; per-rule medians do not.
func ruleMedian(sessions []sessionResult, get func(s sessionResult) float64) float64 {
	byRule := map[int][]float64{}
	for _, s := range sessions {
		byRule[s.rule] = append(byRule[s.rule], get(s))
	}
	var sum float64
	for _, v := range byRule {
		sum += median(v)
	}
	return sum / float64(len(byRule))
}

// traced is the traced run. It first runs up to tracePairs pairs of
// in-process sessions, one untraced and one traced, rotating the rules,
// for at most half the time box, and folds the traced ones into layers.
// The workload's own loop runs for the rest of the box, for the runtime
// and outcome metrics; it is untraced except for the client-side request
// spans of HTTP sessions, which give the serve metrics. Last, it times
// table and blocker calls alone.
func (r *report) traced(w workload, cfg runConfig) error {
	e, err := newEnv(w, cfg.seed)
	if err != nil {
		return err
	}
	defer e.close()
	r.describe(e)
	tr := telemetry.NewTracer(nil)
	start := time.Now()
	var plain, spanned []sessionResult
	more := budget(float64(cfg.seconds)/2, tracePairs)
	for i := 0; i < tracePairs && (i == 0 || more(i)); i++ {
		ri := i % len(e.rules)
		plain = append(plain, e.inProcess(ri, nil, e.w.serve))
		spanned = append(spanned, e.inProcess(ri, tr, e.w.serve))
	}
	r.check(e, plain)
	r.check(e, spanned)

	rest := 0.0
	if cfg.seconds > 0 {
		rest = math.Max(float64(cfg.seconds)-time.Since(start).Seconds(), 1)
	}
	var web []sessionResult // sessions over HTTP, for the serve metrics
	var loopTracer *telemetry.Tracer
	if e.w.serve {
		loopTracer = tr
	}
	loop, wall, use := closedLoop(e.w.clients, budget(rest, e.w.sessions/2),
		func(i int) sessionResult { return e.session(i, loopTracer) })
	r.check(e, loop)
	if e.w.serve {
		web = loop
	}

	roots := map[uint64]*spanNode{}
	for _, n := range sessionTrees(tr.Export()) {
		roots[n.ID] = n
	}
	// folded keeps the traced sessions whose span tree survived, in step
	// with layerFolds.
	var layerFolds, httpFolds []sessionFold
	var folded []sessionResult
	for _, s := range spanned {
		if n := roots[s.traceID]; n != nil {
			layerFolds = append(layerFolds, fold(n))
			folded = append(folded, s)
		}
	}
	for _, s := range web {
		if n := roots[s.traceID]; n != nil {
			httpFolds = append(httpFolds, fold(n))
		}
	}
	fmt.Fprintf(r.out, "   %d+%d in-process session pairs, %d HTTP sessions, %d loop sessions\n", len(plain), len(spanned), len(web), len(loop))
	r.layerTable("in-process sessions", layerFolds)
	r.layerTable("HTTP sessions (client side)", httpFolds)

	r.set("datagen.generate_s", e.generate.Seconds())
	r.layerMetrics(plain, folded, layerFolds)
	r.loopOutcome(w, loop, wall, use)
	r.serveMetrics(web)
	r.soloMetrics(e)

	if cfg.traceOut != "" {
		path := filepath.Join(cfg.traceOut, fmt.Sprintf("trace-%s-seed%d.json", e.w.name, cfg.seed))
		if err := writeTrace(tr, path); err != nil {
			r.fail("writing %s: %v", path, err)
		} else {
			fmt.Fprintf(r.out, "   spans: %s\n", path)
		}
	}
	return nil
}

func writeTrace(tr *telemetry.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOrder is the pipeline order of the layers a session passes.
var layerOrder = []string{"blocker", "config", "ssjoin", "feature", "ranker", "serve", "harness"}

// layerTable prints each layer's median blocking, busy and self time per
// session next to the session's wall time, and checks that the blocking
// layer steps account for the session: at most maxHarnessShare of the
// wall time may fall outside them.
func (r *report) layerTable(title string, folds []sessionFold) {
	if len(folds) == 0 {
		return
	}
	var walls []float64
	worst := 0.0
	for _, f := range folds {
		walls = append(walls, float64(f.wall)/1000)
		if gap := math.Abs(1 - f.accounted()); gap > worst {
			worst = gap
		}
	}
	fmt.Fprintf(r.out, "   %s: session_s p50 %.4g over %d traced sessions\n", title, median(walls)/1000, len(folds))
	fmt.Fprintf(r.out, "   %-10s %12s %12s %12s %8s\n", "layer", "blocking_ms", "busy_ms", "self_ms", "share")
	for _, l := range layerOrder {
		var blocking, busy, self []float64
		for _, f := range folds {
			t := f.layers[l]
			if t == nil {
				t = &layerTimes{}
			}
			blocking = append(blocking, float64(t.blocking)/1000)
			busy = append(busy, float64(t.busy)/1000)
			self = append(self, float64(t.self)/1000)
		}
		if median(busy) == 0 && median(blocking) == 0 {
			continue
		}
		fmt.Fprintf(r.out, "   %-10s %12.3f %12.3f %12.3f %7.1f%%\n", l, median(blocking), median(busy), median(self), 100*median(blocking)/median(walls))
	}
	fmt.Fprintf(r.out, "   accounting: blocking layer steps cover the session wall to within %.2f%% (limit %.0f%%)\n", 100*worst, 100*maxHarnessShare)
	if worst > maxHarnessShare {
		r.fail("%s: layer steps leave %.1f%% of a session unaccounted", title, 100*worst)
	}
}

// layerMetrics derives the in-process layers' numbers from the traced
// sessions, and core.New's own time and the tracing overhead from the
// untraced sessions run beside them.
func (r *report) layerMetrics(plain, spanned []sessionResult, folds []sessionFold) {
	perSession := func(name string, self bool) float64 {
		var v []float64
		for _, f := range folds {
			if self {
				v = append(v, float64(f.selfs[name])/1000)
				continue
			}
			var sum int64
			for _, d := range f.durs[name] {
				sum += d
			}
			v = append(v, float64(sum)/1000)
		}
		return median(v)
	}
	pooled := func(name string) []float64 {
		var v []float64
		for _, f := range folds {
			for _, d := range f.durs[name] {
				v = append(v, float64(d)/1000)
			}
		}
		return v
	}
	var iterations int
	var fit, predict, feedback int64
	var joinWall, joinCPU time.Duration
	for i, f := range folds {
		iterations += spanned[i].iterations
		fit += f.selfs["verifier.fit"]
		predict += f.selfs["verifier.predict"]
		feedback += f.selfs["ranker.feedback"]
		for _, d := range f.durs["ssjoin.joinall"] {
			joinWall += time.Duration(d) * time.Microsecond
		}
		joinCPU += spanned[i].joinCPU
	}
	perIter := func(us int64) float64 {
		if iterations == 0 {
			return 0
		}
		return float64(us) / 1000 / float64(iterations)
	}

	r.set("config.generate_ms", perSession("config.generate", false))
	r.set("ssjoin.corpus_ms", perSession("ssjoin.corpus", false))
	r.set("ssjoin.joinall_s", perSession("ssjoin.joinall", false)/1000)
	if joinWall > 0 {
		r.set("ssjoin.parallelism", joinCPU.Seconds()/joinWall.Seconds())
	}
	configs := sortedCopy(pooled("ssjoin.config"))
	r.set("ssjoin.config_ms.p50", median(configs))
	if len(configs) > 0 {
		r.set("ssjoin.config_ms.max", configs[len(configs)-1])
	}
	for _, s := range []string{"tokenize", "index", "probe", "topk"} {
		r.set("ssjoin."+s+"_ms", perSession("ssjoin."+s, true))
	}
	var extractor []float64
	for _, s := range spanned {
		extractor = append(extractor, float64(s.extractor)/float64(time.Millisecond))
	}
	r.set("feature.extractor_ms", median(extractor))
	r.set("ranker.prepare_ms", perSession("ranker.prepare", false))
	r.set("ranker.next_ms.mean", mean(pooled("ranker.next")))
	r.set("ranker.fit_ms", perIter(fit))
	r.set("ranker.predict_ms", perIter(predict))
	r.set("ranker.feedback_ms", perIter(feedback))

	var newSelf, plainWalls, spannedWalls []float64
	for _, s := range plain {
		newSelf = append(newSelf, float64(s.newSelf)/float64(time.Millisecond))
		plainWalls = append(plainWalls, s.wall.Seconds())
	}
	for _, s := range spanned {
		spannedWalls = append(spannedWalls, s.wall.Seconds())
	}
	r.set("core.new_self_ms", median(newSelf))
	if base := median(plainWalls); base > 0 {
		r.set("telemetry.trace_overhead_pct", 100*(median(spannedWalls)-base)/base)
	}

	// Join statistics: medians over the traced sessions, because list
	// reuse makes them vary slightly with worker timing.
	stat := func(get func(s sessionResult) float64) float64 {
		var v []float64
		for _, s := range spanned {
			v = append(v, get(s))
		}
		return median(v)
	}
	r.set("config.configs", stat(func(s sessionResult) float64 { return float64(s.configs) }))
	r.set("ssjoin.prefix_events", stat(func(s sessionResult) float64 { return float64(s.stats.PrefixEvents) }))
	r.set("ssjoin.scratch_scores", stat(func(s sessionResult) float64 { return float64(s.stats.ScratchScores) }))
	r.set("ssjoin.reused_scores", stat(func(s sessionResult) float64 { return float64(s.stats.ReusedScores) }))
	r.set("ssjoin.suppressed_pairs", stat(func(s sessionResult) float64 { return float64(s.stats.SuppressedPairs) }))
	r.set("ssjoin.deferred_pairs", stat(func(s sessionResult) float64 { return float64(s.stats.DeferredPairs) }))
	r.set("ssjoin.flushed_pairs", stat(func(s sessionResult) float64 { return float64(s.stats.FlushedPairs) }))
	r.set("ssjoin.prune_kills.push_cap", stat(func(s sessionResult) float64 { return float64(s.stats.PruneKillsPushCap) }))
	r.set("ssjoin.prune_kills.loop_break", stat(func(s sessionResult) float64 { return float64(s.stats.PruneKillsLoopBreak) }))
	r.set("ssjoin.prune_kills.flush_bound", stat(func(s sessionResult) float64 { return float64(s.stats.PruneKillsFlushBound) }))
	r.set("ssjoin.prune_kills.length_filter", stat(func(s sessionResult) float64 { return float64(s.stats.PruneKillsLengthFilter) }))
	r.set("ssjoin.prune_kills.prefix_pos", stat(func(s sessionResult) float64 { return float64(s.stats.PruneKillsPrefixPos) }))
	r.set("ssjoin.reuse_hit_ratio", stat(func(s sessionResult) float64 {
		return ratio(s.stats.ReusedScores, s.stats.ReusedScores+s.stats.ReuseMisses)
	}))
	r.set("ssjoin.useful_ratio", stat(func(s sessionResult) float64 { return ratio(int64(s.listPairs), s.stats.ScratchScores) }))
	r.set("ssjoin.q_used", stat(func(s sessionResult) float64 { return float64(s.stats.QUsed) }))
	r.set("ranker.candidates", stat(func(s sessionResult) float64 { return float64(s.candidates) }))
	r.set("ranker.iterations", stat(func(s sessionResult) float64 { return float64(s.iterations) }))
	r.set("ranker.precision", stat(func(s sessionResult) float64 { return ratio(int64(s.matches), int64(s.shown)) }))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// routes lists the HTTP routes a session calls, in call order.
var routes = []string{"create", "tables_put", "blocker", "join", "next", "labels", "candidates", "finish", "report", "delete"}

// envelopeRoutes are the light routes whose latency is mostly the HTTP
// and JSON envelope.
var envelopeRoutes = map[string]bool{"create": true, "labels": true, "finish": true, "delete": true}

// serveMetrics reports the client-side latency of each route over the
// HTTP sessions, and their non-2xx answers. Workloads that run in-process
// have no HTTP sessions and report every serve metric as 0.
func (r *report) serveMetrics(web []sessionResult) {
	non2xx := 0
	byRoute := map[string][]float64{}
	var envelope []float64
	for _, s := range web {
		non2xx += s.non2xx
		for _, rs := range s.routes {
			ms := float64(rs.dur) / float64(time.Millisecond)
			byRoute[rs.route] = append(byRoute[rs.route], ms)
			if envelopeRoutes[rs.route] {
				envelope = append(envelope, ms)
			}
		}
	}
	r.set("serve.non2xx", float64(non2xx))
	for _, rt := range routes {
		r.set("serve.route."+rt+"_ms.p50", median(byRoute[rt]))
		if len(web) > 0 {
			r.line("serve.route."+rt+"_ms", "ms", byRoute[rt])
		}
	}
	r.set("serve.envelope_ms.p50", median(envelope))
	// The p90 is reported even without minBeyond samples above it (the
	// line above shows whether it has them): it is a per-layer number
	// without a bound.
	if blk := byRoute["blocker"]; len(blk) > 0 {
		p90, _ := tail(sortedCopy(blk), 0.90)
		r.set("serve.route.blocker_ms.p90", p90)
	} else {
		r.set("serve.route.blocker_ms.p90", 0)
	}
}

// soloMetrics times table.ReadCSV on the workload's CSVs and each rule's
// Block call alone, outside any session.
func (r *report) soloMetrics(e *env) {
	var reads []float64
	for i := 0; i < soloReps; i++ {
		start := time.Now()
		_, errA := table.ReadCSV(e.data.A.Name(), bytes.NewReader(e.csvA))
		_, errB := table.ReadCSV(e.data.B.Name(), bytes.NewReader(e.csvB))
		reads = append(reads, float64(time.Since(start))/float64(time.Millisecond))
		if errA != nil || errB != nil {
			r.fail("reading the rendered CSVs back: %v %v", errA, errB)
		}
	}
	r.set("table.read_csv_ms", median(reads))
	var blockMS, candidates float64
	for _, q := range e.rules {
		var ms []float64
		var c *blocker.PairSet
		for i := 0; i < soloReps; i++ {
			start := time.Now()
			var err error
			c, err = q.Block(e.data.A, e.data.B)
			ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
			if err != nil {
				r.fail("blocking alone with %s: %v", q.Name(), err)
				return
			}
		}
		blockMS += median(ms)
		candidates += float64(c.Len())
	}
	r.set("blocker.block_ms", blockMS/float64(len(e.rules)))
	r.set("blocker.candidates", candidates/float64(len(e.rules)))
	r.set("ssjoin.pair_space", float64(e.data.A.NumRows())*float64(e.data.B.NumRows()))
}
