package perfstat

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"matchcatcher/internal/runlog"
	"matchcatcher/internal/telemetry"
)

// BaselineSchema identifies the committed baseline file layout
// (BENCH_perf_gate.json). The file is generated mechanically by
// `mcperf report -format json` from a runlog ledger — never edited by
// hand — and consumed by `mcperf check`.
const BaselineSchema = "mc.perfstat.baseline/v1"

// BaselineMetric is one metric's sample arm in a baseline file. Samples
// are kept raw (not just the median) so future checks can rerun the
// full rank test against them.
type BaselineMetric struct {
	Direction string    `json:"direction"`
	Samples   []float64 `json:"samples"`
	N         int       `json:"n"`
	Median    float64   `json:"median"`
	CILo      float64   `json:"ci_lo"`
	CIHi      float64   `json:"ci_hi"`
}

// BaselineSource records where the baseline's samples came from, so a
// reviewer can regenerate and compare.
type BaselineSource struct {
	Records      int            `json:"records"`
	Tools        map[string]int `json:"tools"`
	Exps         []string       `json:"exps"`
	Seeds        []int64        `json:"seeds"`
	ConfigHashes []string       `json:"config_hashes"`
}

// Baseline is the machine-generated replacement for the repo's
// hand-written BENCH_*.json files: a self-describing snapshot of a
// workload's sample distributions, pinned to the environment and build
// that produced them.
type Baseline struct {
	Schema      string `json:"schema"`
	Description string `json:"description,omitempty"`
	GeneratedBy string `json:"generated_by"`
	// Date is the timestamp of the newest contributing record — a pure
	// function of the ledger, so regenerating from the same ledger is
	// byte-identical.
	Date        string                    `json:"date"`
	Environment runlog.Fingerprint        `json:"environment"`
	Build       telemetry.BuildInfo       `json:"build"`
	Source      BaselineSource            `json:"source"`
	Metrics     map[string]BaselineMetric `json:"metrics"`
}

// BuildBaseline aggregates a ledger into a baseline: per-metric sample
// arms pooled across records, summarized; environment and build taken
// from the newest record (with a sanity requirement that all records
// share a comparable environment is NOT enforced here — mixed ledgers
// are the caller's lookout and visible in Source).
func BuildBaseline(recs []runlog.Record, desc string) (Baseline, error) {
	if len(recs) == 0 {
		return Baseline{}, fmt.Errorf("perfstat: empty ledger")
	}
	b := Baseline{
		Schema:      BaselineSchema,
		Description: desc,
		GeneratedBy: "mcperf report",
		Metrics:     map[string]BaselineMetric{},
		Source: BaselineSource{
			Records: len(recs),
			Tools:   map[string]int{},
		},
	}
	seedSet := map[int64]bool{}
	hashSet := map[string]bool{}
	expSet := map[string]bool{}
	latest := recs[0]
	for _, r := range recs {
		b.Source.Tools[r.Tool]++
		seedSet[r.Seed] = true
		hashSet[r.ConfigHash] = true
		if r.Exp != "" {
			expSet[r.Exp] = true
		}
		if r.Time >= latest.Time {
			latest = r
		}
	}
	b.Date = latest.Time
	b.Environment = latest.Env
	b.Build = latest.Build
	for s := range seedSet {
		b.Source.Seeds = append(b.Source.Seeds, s)
	}
	sort.Slice(b.Source.Seeds, func(i, j int) bool { return b.Source.Seeds[i] < b.Source.Seeds[j] })
	for h := range hashSet {
		b.Source.ConfigHashes = append(b.Source.ConfigHashes, h)
	}
	sort.Strings(b.Source.ConfigHashes)
	for e := range expSet {
		b.Source.Exps = append(b.Source.Exps, e)
	}
	sort.Strings(b.Source.Exps)

	for metric, samples := range runlog.Samples(recs) {
		s := Summarize(samples)
		b.Metrics[metric] = BaselineMetric{
			Direction: DirectionFor(metric).String(),
			Samples:   samples,
			N:         s.N,
			Median:    s.Median,
			CILo:      s.CILo,
			CIHi:      s.CIHi,
		}
	}
	return b, nil
}

// SampleMap extracts the per-metric sample arms, the CompareAll input
// shape.
func (b Baseline) SampleMap() map[string][]float64 {
	out := make(map[string][]float64, len(b.Metrics))
	for k, m := range b.Metrics {
		out[k] = m.Samples
	}
	return out
}

// ReadBaselineFile loads and validates a baseline file.
func ReadBaselineFile(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, fmt.Errorf("perfstat: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("perfstat: parsing baseline %s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return Baseline{}, fmt.Errorf("perfstat: %s: schema %q, want %q", path, b.Schema, BaselineSchema)
	}
	if len(b.Metrics) == 0 {
		return Baseline{}, fmt.Errorf("perfstat: %s: baseline has no metrics", path)
	}
	return b, nil
}

// MarshalIndent renders the baseline as committed-file JSON
// (deterministic: map keys sort, sample order is record order).
func (b Baseline) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
