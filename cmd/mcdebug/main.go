// Command mcdebug debugs a blocker's recall on two CSV tables, the way
// the paper's users drive MatchCatcher.
//
// Interactive session (you are the labeler):
//
//	mcdebug -a A.csv -b B.csv -drop "title_cos_word<0.4"
//
// Each iteration prints up to n suspicious killed-off pairs; answer with
// the numbers of the true matches (e.g. "1 3"), or press enter for none;
// "q" stops. With -gold gold.csv the synthetic user labels automatically.
//
// Blockers: -drop parses a Magellan-style kill rule, -keep a keep rule,
// -attr-equal names an attribute-equivalence blocker; several flags
// combine as a union.
//
// Observability: -explain a_row,b_row (repeatable) watches specific pairs
// and prints their full decision lineage (blocker keep/drop, join score
// and rank, verifier position and label) when the session ends;
// -explain-gold watches every gold pair. -trace-out writes the session's
// hierarchical trace as Chrome trace_event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev); -trace-tree dumps the
// span tree to stderr. Progress goes to stderr as structured logs
// correlated with the trace id; -v raises verbosity to debug.
//
// -ledger appends the finished session to a runlog JSONL ledger: the
// cumulative recall-vs-iterations series (fractions of M_D when -gold
// is given, raw match counts otherwise), iteration/match/wall-time
// scalars, and the full telemetry snapshot — mcperf's input for
// tracking debugging-session quality across commits.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/core"
	"matchcatcher/internal/metrics"
	"matchcatcher/internal/oracle"
	"matchcatcher/internal/runlog"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// cliOpts carries the parsed command line into run.
type cliOpts struct {
	aPath, bPath, goldPath string
	reportPath             string
	canonical              bool
	ledgerPath             string
	traceOut               string
	traceTree              bool
	explain                [][2]int
	explainGold            bool
	n, k                   int
	workers                int
	progress               bool
	seed                   int64
	drops, keeps, equals   []string
	log                    *slog.Logger
}

func main() {
	os.Exit(mainE())
}

// mainE is main's body returning an exit code, so every path — error
// exits included — runs the deferred cleanup (in particular the
// graceful -metrics-addr listener shutdown; a bare os.Exit would leak
// the socket past the process's accounting and cut scrapes mid-write).
func mainE() int {
	var o cliOpts
	flag.StringVar(&o.aPath, "a", "", "table A CSV path")
	flag.StringVar(&o.bPath, "b", "", "table B CSV path")
	flag.StringVar(&o.goldPath, "gold", "", "optional gold CSV (a_row,b_row); labels automatically")
	flag.IntVar(&o.n, "n", 20, "pairs per iteration")
	flag.IntVar(&o.k, "k", 1000, "top-k per config")
	flag.IntVar(&o.workers, "workers", 0, "concurrent config joins (0 = GOMAXPROCS); results are bit-identical at any value")
	flag.BoolVar(&o.progress, "progress", false, "draw a live join progress meter on stderr (fraction, prune tiers, ETA)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.reportPath, "report", "", "write a JSON session report to this path")
	flag.BoolVar(&o.canonical, "canonical", false, "omit the telemetry snapshot from -report so same-seed runs write byte-identical reports")
	flag.StringVar(&o.ledgerPath, "ledger", "", "append the session's metrics (recall-vs-iteration series, wall time) to this runlog JSONL ledger")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the session trace as Chrome trace_event JSON to this path")
	flag.BoolVar(&o.traceTree, "trace-tree", false, "dump the session's span tree to stderr when done")
	flag.BoolVar(&o.explainGold, "explain-gold", false, "watch every gold pair (-gold) for provenance")
	verbose := flag.Bool("v", false, "verbose (debug-level) logging")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics (plus expvar and pprof) on this address, e.g. :8080")
	var drops, keeps, equals, explains listFlag
	flag.Var(&drops, "drop", "kill-rule expression (repeatable)")
	flag.Var(&keeps, "keep", "keep-rule expression (repeatable)")
	flag.Var(&equals, "attr-equal", "attribute-equivalence blocker on this attribute (repeatable)")
	flag.Var(&explains, "explain", "watch this a_row,b_row pair and print its decision lineage (repeatable)")
	flag.Parse()
	o.drops, o.keeps, o.equals = drops, keeps, equals

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	o.log = telemetry.NewLogger(os.Stderr, level)

	for _, src := range explains {
		p, err := parseExplain(src)
		if err != nil {
			o.log.Error("bad -explain flag", "value", src, "err", err)
			return 1
		}
		o.explain = append(o.explain, p)
	}

	if *metricsAddr != "" {
		srv, addr, err := telemetry.Default().Serve(*metricsAddr)
		if err != nil {
			o.log.Error("metrics server failed", "err", err)
			return 1
		}
		// Graceful shutdown on every exit path: finish in-flight scrapes,
		// then close the listener, instead of leaking the socket to
		// process teardown.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close()
			}
		}()
		o.log.Info("metrics server up", "url", fmt.Sprintf("http://%s/metrics", addr))
	}

	if err := run(o); err != nil {
		o.log.Error("session failed", "err", err)
		return 1
	}
	return 0
}

// parseExplain parses an -explain flag value of the form "a_row,b_row".
func parseExplain(src string) ([2]int, error) {
	parts := strings.Split(src, ",")
	if len(parts) != 2 {
		return [2]int{}, fmt.Errorf("want a_row,b_row")
	}
	a, errA := strconv.Atoi(strings.TrimSpace(parts[0]))
	b, errB := strconv.Atoi(strings.TrimSpace(parts[1]))
	if errA != nil || errB != nil || a < 0 || b < 0 {
		return [2]int{}, fmt.Errorf("want two non-negative row ids")
	}
	return [2]int{a, b}, nil
}

func run(o cliOpts) error {
	o.log = telemetry.LoggerOr(o.log)
	if o.aPath == "" || o.bPath == "" {
		return fmt.Errorf("-a and -b are required")
	}
	a, err := table.ReadCSVFile(o.aPath)
	if err != nil {
		return err
	}
	b, err := table.ReadCSVFile(o.bPath)
	if err != nil {
		return err
	}
	q, err := blocker.BuildFromRules(o.drops, o.keeps, o.equals)
	if err != nil {
		return err
	}

	var gold *blocker.PairSet
	if o.goldPath != "" {
		if gold, err = readGold(o.goldPath); err != nil {
			return err
		}
	}

	// Provenance watch list: explicit -explain pairs plus, under
	// -explain-gold, every gold pair.
	prov := telemetry.NewProvenance(o.explain...)
	if o.explainGold {
		if gold == nil {
			return fmt.Errorf("-explain-gold requires -gold")
		}
		for _, p := range gold.SortedPairs() {
			prov.Watch(p.A, p.B)
		}
	}

	tracer := telemetry.NewTracer(telemetry.Default())

	// blocker.Run hangs the per-rule blocker.block spans under bsp and
	// records the blocker's keep/drop decisions into prov.
	bsp := tracer.Start("blocker.run", telemetry.L("blocker", q.Name()))
	o.log.Info("blocking", "rows_a", a.NumRows(), "rows_b", b.NumRows(), "blocker", q.Name())
	c, err := blocker.Run(q, a, b, bsp, prov)
	bsp.End()
	if err != nil {
		return err
	}
	o.log.Info("blocking done", "c_size", c.Len())

	// M_D: how many gold matches the blocker killed — the denominator of
	// the session's recall series (gold runs only).
	md := 0
	if gold != nil {
		md = gold.Len() - metrics.Intersection(gold, c)
	}

	sessionStart := time.Now()
	opt := core.Options{Trace: tracer, Logger: o.log, Provenance: prov}
	opt.Join.K = o.k
	opt.Join.Workers = o.workers
	opt.Verifier.N = o.n
	opt.Verifier.Seed = o.seed
	// The meter stops as soon as core.New returns: the join is the only
	// long phase, and a meter left running would redraw over the
	// interactive labeling prompt.
	var stopMeter func()
	if o.progress {
		prog := ssjoin.NewProgress()
		opt.Join.Progress = prog
		stopMeter = progressMeter(os.Stderr, prog, 200*time.Millisecond)
	}
	dbg, err := core.New(a, b, c, opt)
	if stopMeter != nil {
		stopMeter()
	}
	if err != nil {
		return err
	}
	fmt.Printf("configs over %v; |E| = %d candidates\n", dbg.Configs().Promising, dbg.CandidateCount())

	var label func(x, y int) bool
	if gold != nil {
		u := oracle.New(gold, 0, o.seed)
		label = u.Label
	}

	// matchesByIter tracks the cumulative killed-off matches found after
	// each verifier iteration — the paper's recall-vs-iterations curve.
	var matchesByIter []float64
	in := bufio.NewScanner(os.Stdin)
	for !dbg.Done() {
		pairs := dbg.Next()
		if len(pairs) == 0 {
			break
		}
		labels := make([]bool, len(pairs))
		if label != nil {
			for i, p := range pairs {
				labels[i] = label(p.A, p.B)
			}
		} else {
			fmt.Printf("\niteration %d — are any of these matches?\n", dbg.Iterations()+1)
			for i, p := range pairs {
				fmt.Printf("  [%d] A#%d  %s\n       B#%d  %s\n", i+1,
					p.A, strings.Join(dbg.RowA(p.A), " | "),
					p.B, strings.Join(dbg.RowB(p.B), " | "))
			}
			fmt.Print("match numbers (e.g. \"1 3\"), enter for none, q to stop: ")
			if !in.Scan() {
				break
			}
			line := strings.TrimSpace(in.Text())
			if line == "q" {
				break
			}
			for _, f := range strings.Fields(line) {
				if idx, err := strconv.Atoi(f); err == nil && idx >= 1 && idx <= len(labels) {
					labels[idx-1] = true
				}
			}
		}
		if err := dbg.Feedback(labels); err != nil {
			return err
		}
		matchesByIter = append(matchesByIter, float64(len(dbg.Matches())))
	}
	dbg.Finish()
	sessionWall := time.Since(sessionStart)

	matches := dbg.Matches()
	fmt.Printf("\nfound %d killed-off matches in %d iterations\n", len(matches), dbg.Iterations())
	for i, m := range matches {
		if i >= 25 {
			fmt.Printf("  ... and %d more\n", len(matches)-25)
			break
		}
		ex := dbg.Explain(m)
		fmt.Printf("  (A#%d, B#%d): %s\n", m.A, m.B, strings.Join(ex.Notes, "; "))
	}
	if len(matches) > 0 {
		fmt.Println("\nmost pervasive blocker problems:")
		for _, p := range dbg.TopProblems(matches, 5) {
			fmt.Println("  -", p)
		}
	}

	if prov.Active() {
		fmt.Println()
		if err := dbg.WriteExplainReport(os.Stdout); err != nil {
			return err
		}
	}

	if o.traceTree {
		if err := tracer.WriteTree(os.Stderr); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		o.log.Info("wrote chrome trace", "path", o.traceOut, "spans", tracer.Len(), "dropped", tracer.Dropped())
	}

	if o.reportPath != "" {
		f, err := os.Create(o.reportPath)
		if err != nil {
			return err
		}
		write := dbg.WriteReport
		if o.canonical {
			write = dbg.WriteCanonicalReport
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		o.log.Info("wrote session report", "path", o.reportPath)
	}

	if o.ledgerPath != "" {
		rec := sessionRecord(o, q.Name(), matches, dbg.Iterations(), md, matchesByIter, sessionWall)
		if err := runlog.Append(o.ledgerPath, rec); err != nil {
			return err
		}
		o.log.Info("appended session to ledger", "path", o.ledgerPath, "iterations", dbg.Iterations())
	}
	return nil
}

// sessionRecord builds the runlog record of one debug session: scalar
// outcome metrics plus the per-iteration cumulative recall series. With
// gold, the series is the recall fraction found/M_D (the paper's
// recall-vs-iterations curve); without, raw cumulative match counts.
func sessionRecord(o cliOpts, blockerName string, matches []blocker.Pair, iterations, md int,
	matchesByIter []float64, wall time.Duration) runlog.Record {
	rec := runlog.New("mcdebug", "session", o.seed, map[string]any{
		"a": o.aPath, "b": o.bPath, "blocker": blockerName, "n": o.n, "k": o.k,
	})
	rec.Metrics = map[string]float64{
		"mcdebug:iterations":    float64(iterations),
		"mcdebug:matches_found": float64(len(matches)),
		"mcdebug:wall_seconds":  wall.Seconds(),
	}
	series := matchesByIter
	if md > 0 {
		rec.Metrics["mcdebug:recall_f"] = float64(len(matches)) / float64(md)
		series = make([]float64, len(matchesByIter))
		for i, m := range matchesByIter {
			series[i] = m / float64(md)
		}
	}
	rec.Series = map[string][]float64{"recall_by_iteration": series}
	rec.AttachTelemetry(telemetry.Default())
	return rec
}

func readGold(path string) (*blocker.PairSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	gold := blocker.NewPairSet()
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return gold, nil
		}
		if err != nil {
			return nil, err
		}
		if first {
			first = false
			if len(rec) >= 1 && rec[0] == "a_row" {
				continue
			}
		}
		if len(rec) < 2 {
			return nil, fmt.Errorf("gold file %s: want a_row,b_row records", path)
		}
		a, errA := strconv.Atoi(rec[0])
		b, errB := strconv.Atoi(rec[1])
		if errA != nil || errB != nil {
			return nil, fmt.Errorf("gold file %s: bad record %v", path, rec)
		}
		gold.Add(a, b)
	}
}
