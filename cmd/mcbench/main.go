// Command mcbench regenerates the paper's evaluation tables and figures
// on the synthetic datasets:
//
//	mcbench -exp table3 -scale 0.25     # quick pass at quarter scale
//	mcbench -exp all                    # the full Section 6 sweep
//
// Experiments: table1, table3, table4, hashdebug, learned, fig9,
// ablate-config, ablate-long, ablate-joint, ablate-verifier, sensitivity,
// all. -datasets filters table3 to a comma-separated dataset list.
//
// Regression observability: -ledger appends one runlog record per run
// (metrics + env fingerprint + telemetry snapshot) to a JSONL ledger,
// and -count N repeats the experiment over fresh environments so mcperf
// gets N samples per metric (a per-metric median table is printed for
// N > 1). Under -json, each repetition emits its own JSON document.
//
// With -json the experiment's rows are emitted to stdout as one JSON
// document {"exp", "scale", "rows", "telemetry"} — the telemetry field is
// the run's full metrics snapshot (prune rates, stage latencies) — and progress lines move to stderr so stdout stays valid
// JSON. -metrics-addr additionally serves live Prometheus /metrics.
//
// Profiling and tracing: -profile-dir captures pprof profiles of the run
// (<exp>_cpu.pprof and <exp>_heap.pprof; inspect with go tool pprof);
// -trace-out writes every debug session's hierarchical span tree as one
// Chrome trace_event file for chrome://tracing / Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"matchcatcher/internal/experiments"
	"matchcatcher/internal/runlog"
	"matchcatcher/internal/telemetry"
)

// cliOptions are mcbench's parsed flags.
type cliOptions struct {
	Exp         string
	Scale       float64
	K           int
	Seed        int64
	Count       int
	Datasets    string
	JSON        bool
	Ledger      string
	MetricsAddr string
	ProfileDir  string
	TraceOut    string
}

// parseFlags parses argv (without the program name) into options.
func parseFlags(args []string) (cliOptions, error) {
	var o cliOptions
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	fs.StringVar(&o.Exp, "exp", "table3", "experiment to run")
	fs.Float64Var(&o.Scale, "scale", 1, "dataset scale factor")
	fs.IntVar(&o.K, "k", 1000, "top-k per config")
	fs.Int64Var(&o.Seed, "seed", 1, "random seed")
	fs.IntVar(&o.Count, "count", 1, "repetitions over fresh environments (variance mode; N samples per metric)")
	fs.StringVar(&o.Datasets, "datasets", "", "comma-separated dataset filter (table3, fig9)")
	fs.BoolVar(&o.JSON, "json", false, "emit JSON (rows + telemetry snapshot) instead of text tables")
	fs.StringVar(&o.Ledger, "ledger", "", "append one runlog record per repetition to this JSONL ledger (mcperf input)")
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "serve Prometheus /metrics (plus expvar and pprof) on this address, e.g. :8080")
	fs.StringVar(&o.ProfileDir, "profile-dir", "", "write pprof CPU and heap profiles of the run into this directory")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write the run's span trees as Chrome trace_event JSON to this path")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.Count < 1 {
		return o, fmt.Errorf("-count must be >= 1, got %d", o.Count)
	}
	return o, nil
}

// bench is one mcbench invocation with its output streams, so tests can
// capture stdout/stderr separately.
type bench struct {
	opts   cliOptions
	stdout io.Writer
	stderr io.Writer
	// collected, when non-nil, accumulates the current repetition's
	// ledger metrics (filled by emit via collect).
	collected map[string]float64
}

// progress prints human chatter: stdout normally, stderr under -json so
// stdout remains a single valid JSON document.
func (c *bench) progress(format string, args ...interface{}) {
	w := c.stdout
	if c.opts.JSON {
		w = c.stderr
	}
	fmt.Fprintf(w, format, args...)
}

// jsonReport is the -json output envelope.
type jsonReport struct {
	Exp       string              `json:"exp"`
	Scale     float64             `json:"scale"`
	Rows      interface{}         `json:"rows"`
	Telemetry *telemetry.Snapshot `json:"telemetry"`
}

// emit prints rows as JSON (with the run's telemetry snapshot) when
// -json is set, else the formatted text table.
func (c *bench) emit(rows interface{}, text string) error {
	c.collect(rows)
	if c.opts.JSON {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonReport{
			Exp:       c.opts.Exp,
			Scale:     c.opts.Scale,
			Rows:      rows,
			Telemetry: telemetry.Default().Snapshot(),
		})
	}
	fmt.Fprint(c.stdout, text)
	return nil
}

// startProfiles begins a CPU profile and returns a stop function that
// finishes it and writes a heap profile; profile files are named after
// the experiment (<exp>_cpu.pprof, <exp>_heap.pprof).
func startProfiles(dir, exp string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(dir, exp+"_cpu.pprof")
	cpuF, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpuF.Close(); err != nil {
			return err
		}
		heapF, err := os.Create(filepath.Join(dir, exp+"_heap.pprof"))
		if err != nil {
			return err
		}
		runtime.GC() // materialize up-to-date allocation stats
		if err := pprof.WriteHeapProfile(heapF); err != nil {
			heapF.Close()
			return err
		}
		return heapF.Close()
	}, nil
}

// writeChromeTrace dumps the tracer's span trees to path.
func writeChromeTrace(tr *telemetry.Tracer, path string) error {
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

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	logg := telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	c := &bench{opts: opts, stdout: os.Stdout, stderr: os.Stderr}
	if opts.MetricsAddr != "" {
		srv, addr, err := telemetry.Default().Serve(opts.MetricsAddr)
		if err != nil {
			logg.Error("metrics server failed", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		c.progress("metrics: http://%s/metrics\n", addr)
	}

	env := experiments.NewEnv(opts.Scale)
	opt := experiments.DebugOptions{K: opts.K, Seed: opts.Seed}

	var tracer *telemetry.Tracer
	if opts.TraceOut != "" {
		tracer = telemetry.NewTracer(telemetry.Default())
		opt.Trace = tracer
	}
	var stopProfiles func() error
	if opts.ProfileDir != "" {
		stopProfiles, err = startProfiles(opts.ProfileDir, opts.Exp)
		if err != nil {
			logg.Error("profile capture failed to start", "err", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	var runErr error
	var recs []runlog.Record
	for rep := 1; rep <= opts.Count; rep++ {
		if opts.Count > 1 {
			c.progress("\n===== rep %d/%d =====\n", rep, opts.Count)
			// Fresh caches each repetition so later reps re-measure the
			// full pipeline instead of hitting the dataset/blocker caches.
			env = experiments.NewEnv(opts.Scale)
		}
		c.collected = map[string]float64{}
		repStart := time.Now()
		runErr = c.run(env, opts.Exp, opts.Datasets, opt)
		wall := time.Since(repStart).Seconds()
		if runErr != nil {
			break
		}
		if opts.Ledger == "" && opts.Count == 1 {
			continue
		}
		c.collected[opts.Exp+":wall_seconds"] = wall
		rec := runlog.New("mcbench", opts.Exp, opts.Seed, map[string]any{
			"exp": opts.Exp, "scale": opts.Scale, "k": opts.K, "datasets": opts.Datasets,
		})
		rec.Metrics = c.collected
		rec.AttachTelemetry(telemetry.Default())
		recs = append(recs, rec)
		// The append happens after the repetition's timings are taken, so
		// ledger I/O never lands inside a measured section.
		if opts.Ledger != "" {
			if err := runlog.Append(opts.Ledger, rec); err != nil {
				logg.Error("ledger append failed", "path", opts.Ledger, "err", err)
				os.Exit(1)
			}
		}
	}
	if runErr == nil && opts.Count > 1 {
		c.progress("\n===== medians over %d reps =====\n%s", opts.Count, medianTable(recs))
	}
	if stopProfiles != nil {
		if err := stopProfiles(); err != nil {
			logg.Error("profile capture failed", "err", err)
		} else {
			logg.Info("wrote pprof profiles", "dir", opts.ProfileDir, "exp", opts.Exp)
		}
	}
	if tracer != nil {
		if err := writeChromeTrace(tracer, opts.TraceOut); err != nil {
			logg.Error("trace export failed", "err", err)
		} else {
			logg.Info("wrote chrome trace", "path", opts.TraceOut,
				"spans", tracer.Len(), "dropped", tracer.Dropped())
		}
	}
	if runErr != nil {
		logg.Error("experiment failed", "exp", opts.Exp, "err", runErr)
		os.Exit(1)
	}
	c.progress("\n[%s done in %s at scale %g]\n", opts.Exp, time.Since(start).Round(time.Millisecond), opts.Scale)
}

func (c *bench) run(env *experiments.Env, exp, datasets string, opt experiments.DebugOptions) error {
	switch exp {
	case "all":
		for _, e := range []string{"table1", "table3", "table4", "hashdebug", "learned",
			"fig9", "ablate-config", "ablate-long", "ablate-joint", "ablate-verifier", "sensitivity"} {
			c.progress("\n===== %s =====\n", e)
			if err := c.run(env, e, datasets, opt); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil

	case "table1":
		rows, err := env.RunTable1([]string{"A-G", "W-A", "A-D", "F-Z", "M1", "M2", "Papers"})
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatTable1(rows))

	case "table3":
		specs := experiments.Table2Blockers()
		if datasets != "" {
			want := map[string]bool{}
			for _, d := range strings.Split(datasets, ",") {
				want[strings.TrimSpace(d)] = true
			}
			var filtered []experiments.Spec
			for _, s := range specs {
				if want[s.Dataset] {
					filtered = append(filtered, s)
				}
			}
			specs = filtered
		}
		var rows []experiments.Table3Row
		for _, s := range specs {
			row, err := env.RunTable3Row(s, opt)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			c.progress("done %s/%s: C=%d M_D=%d E=%d M_E=%d F=%d I=%d (topk %.1fs)\n",
				row.Dataset, row.Blocker, row.C, row.MD, row.E, row.ME, row.F, row.I, row.TopKTime.Seconds())
		}
		c.progress("\n")
		return c.emit(rows, experiments.FormatTable3(rows))

	case "table4":
		rows, err := env.RunTable4(opt)
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatTable4(rows))

	case "hashdebug":
		rows, err := env.RunHashDebugAll(opt)
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatHashDebug(rows))

	case "learned":
		rows, err := env.RunLearned(3, opt)
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatLearned(rows))

	case "fig9":
		// Sweep one dataset fraction at a time and print points as they
		// land, so an interrupted sweep still records its prefix.
		// -datasets restricts to M2 or Papers (both by default), letting
		// the two sweeps run at different -scale settings.
		wantDS := map[string]bool{"M2": true, "Papers": true}
		if datasets != "" {
			wantDS = map[string]bool{}
			for _, d := range strings.Split(datasets, ",") {
				wantDS[strings.TrimSpace(d)] = true
			}
		}
		m2 := experiments.SpecsFor("M2")[:3] // HASH1, HASH2, SIM1, as in the figure
		var learned []experiments.Spec
		if wantDS["Papers"] {
			var err error
			learned, err = env.LearnedBlockers(3, opt.Seed)
			if err != nil {
				return err
			}
		}
		var all []experiments.Fig9Point
		for _, pct := range []int{10, 40, 70, 100} {
			var points []experiments.Fig9Point
			if wantDS["M2"] {
				ps, err := env.RunFig9("M2", m2, []int{100, 1000}, []int{pct})
				if err != nil {
					return err
				}
				points = append(points, ps...)
			}
			if wantDS["Papers"] {
				// k=1000 only: the paper's k=100 series has the same
				// shape, and each 95K-tuple join runs minutes on one core.
				ps, err := env.RunFig9("Papers", learned, []int{1000}, []int{pct})
				if err != nil {
					return err
				}
				points = append(points, ps...)
			}
			for _, p := range points {
				c.progress("point %s/%s k=%d pct=%d%% %.2fs\n", p.Dataset, p.Blocker, p.K, p.Pct, p.Seconds)
			}
			all = append(all, points...)
		}
		c.progress("\n")
		return c.emit(all, experiments.FormatFig9(all))

	case "ablate-config":
		// One representative blocker per dataset (W-A's joins run for
		// minutes each; its blockers are covered by table3).
		specs := []experiments.Spec{
			experiments.SpecsFor("A-G")[0],
			experiments.SpecsFor("A-G")[1],
			experiments.SpecsFor("A-D")[0],
			experiments.SpecsFor("F-Z")[1],
			experiments.SpecsFor("F-Z")[3],
			experiments.SpecsFor("M1")[1],
		}
		rows, err := env.RunMultiConfigAblation(specs, opt)
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatMultiConfig(rows))

	case "ablate-long":
		// A-G is the long-attribute dataset (its descriptions dominate
		// tuple length); W-A behaves the same but each of its joins runs
		// for minutes, so the recorded ablation uses A-G.
		specs := experiments.SpecsFor("A-G")
		rows, err := env.RunLongAttrAblation(specs, opt)
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatLongAttr(rows))

	case "ablate-joint":
		// W-A: the one dataset past the paper's t = 20 score-reuse gate.
		specs := []experiments.Spec{
			experiments.SpecsFor("A-G")[1],
			experiments.SpecsFor("W-A")[1],
			experiments.SpecsFor("A-D")[0],
			experiments.SpecsFor("F-Z")[1],
			experiments.SpecsFor("M1")[1],
		}
		rows, err := env.RunJointAblation(specs, opt)
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatJoint(rows))

	case "ablate-verifier":
		specs := []experiments.Spec{
			experiments.SpecsFor("A-G")[1],
			experiments.SpecsFor("F-Z")[3],
			experiments.SpecsFor("A-D")[3],
		}
		rows, err := env.RunVerifierAblation(specs, 10, opt)
		if err != nil {
			return err
		}
		return c.emit(rows, experiments.FormatVerifierAblation(rows))

	case "sensitivity":
		spec := experiments.SpecsFor("A-G")[1] // HASH, the richest M_D
		points, err := env.RunSensitivityK(spec, []int{100, 250, 500, 1000, 2000})
		if err != nil {
			return err
		}
		al, err := env.RunSensitivityAL(spec, []int{0, 1, 3, 6}, 12, opt)
		if err != nil {
			return err
		}
		combined := struct {
			K  []experiments.SensitivityPoint
			AL []experiments.ALSensitivityPoint
		}{points, al}
		return c.emit(combined,
			experiments.FormatSensitivityK(points)+"\n"+experiments.FormatSensitivityAL(al))
	}
	return fmt.Errorf("unknown experiment %q", exp)
}
