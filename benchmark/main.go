// Command benchmark is MatchCatcher's session benchmark. It times whole
// debugging sessions the way a user waits through them: from handing the
// blocker's output over to holding the first batch of suspect pairs, and
// from handing a batch's labels over to holding the next batch. Every
// session drives the public pipeline (Block, core.New, Next/Feedback until
// done, Finish), in-process or through mcserve on a loopback socket, with
// the synthetic user labelling from gold, and every session's output is
// checked against a reference.
//
// Run every workload, each in a child process of its own:
//
//	go run . -seed 1                 # timed runs: end-to-end metrics
//	go run . -seed 1 -trace 1        # traced runs: per-layer metrics, spans
//	go run . -repeat 10 -out a.json  # ten seeds per workload, kept for -compare
//	go run . -compare a.json b.json  # verdict per (workload, metric)
//
// Run one workload in this process, printing its result as a JSON object
// on the last line:
//
//	go run . -workload m2-dense -seed 3 -seconds 20 -trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"matchcatcher/internal/runlog"
	"matchcatcher/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 0, "time box of a run's measured sessions (0: the workload's fixed session count)")
	trace := fs.Int("trace", 0, "1: the traced run, reporting per-layer metrics and writing spans")
	traceOut := fs.String("trace-out", ".bench_build", "directory the traced runs write Chrome trace JSON to")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ... (every-workload mode)")
	out := fs.String("out", "", "write every run's metrics to this file for -compare (every-workload mode)")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace takes 0 or 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	cfg := runConfig{seed: *seed, seconds: *secs, trace: *trace == 1, traceOut: *traceOut}
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(w, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runAll(cfg, *repeat, *out, stdout, stderr)
}

// resultsFile is what -out writes and -compare reads: every run's
// metrics, with the machine and revision they were measured on.
type resultsFile struct {
	Env   runlog.Fingerprint  `json:"env"`
	Build telemetry.BuildInfo `json:"build"`
	Runs  []runRecord         `json:"runs"`
}

type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runAll runs every workload, one at a time and each in a fresh child
// process, so peak RSS and GC state belong to that workload alone.
func runAll(cfg runConfig, repeat int, outPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rf := resultsFile{Env: runlog.CaptureFingerprint(), Build: runlog.Build()}
	fmt.Fprintf(stdout, "revision %s dirty=%v  nproc %d  cpu %q\n", rf.Build.Revision, rf.Build.Dirty, rf.Env.NumCPU, rf.Env.CPU)
	ok := true
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloads {
			seed := cfg.seed + int64(rep)
			rec, err := runChild(self, w.name, seed, cfg, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "%s seed %d: %v\n", w.name, seed, err)
				ok = false
				continue
			}
			ok = ok && rec.Correct
			rf.Runs = append(rf.Runs, rec)
		}
	}
	printSummary(rf, stdout)
	if outPath != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "some runs failed their output checks")
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, passing its table
// through and parsing its result line.
func runChild(self, name string, seed int64, cfg runConfig, stdout io.Writer) (runRecord, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-trace-out", cfg.traceOut)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return runRecord{}, runErr
		}
		return runRecord{}, errors.New("no result line")
	}
	rec := runRecord{Workload: name, Seed: seed, Trace: cfg.trace, Correct: res.Correct,
		Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]float64{}}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v.Value
	}
	return rec, nil
}
