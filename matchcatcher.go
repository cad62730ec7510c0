// Package matchcatcher is a debugger for blocking in entity matching, a
// from-scratch Go implementation of "MatchCatcher: A Debugger for Blocking
// in Entity Matching" (EDBT 2018).
//
// Given two tables A and B to be matched and the candidate set C produced
// by any blocker, MatchCatcher finds plausible matches the blocker killed
// off — without knowing the blocker and without materializing A×B−C — and
// drives an interactive loop that surfaces true matches to the user so the
// blocker's recall problems can be diagnosed and fixed.
//
// Quick start:
//
//	a, _ := matchcatcher.ReadCSVFile("a.csv")
//	b, _ := matchcatcher.ReadCSVFile("b.csv")
//	q := matchcatcher.AttrEquivalence("city")    // any Blocker works
//	c, _ := q.Block(a, b)
//	dbg, _ := matchcatcher.New(a, b, c, matchcatcher.Options{})
//	for !dbg.Done() {
//		pairs := dbg.Next()             // up to 20 suspicious pairs
//		labels := askUser(pairs)        // which are true matches?
//		dbg.Feedback(labels)
//	}
//	for _, m := range dbg.Matches() {
//		fmt.Println(dbg.Explain(m).Notes) // why blocking killed it
//	}
//
// The heavy lifting lives in the internal packages: internal/config
// (Section 3's config generator), internal/ssjoin (Section 4's top-k
// string similarity joins), internal/ranker (Section 5's match verifier),
// and internal/blocker (the blocker substrate). This package re-exports
// the surface a downstream user needs.
package matchcatcher

import (
	"io"
	"log/slog"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/core"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// Table is an in-memory relation; see internal/table.
type Table = table.Table

// NewTable creates an empty table with a schema.
func NewTable(name string, attrs []string) (*Table, error) { return table.New(name, attrs) }

// ReadCSV reads a table from CSV (first record is the header).
func ReadCSV(name string, r io.Reader) (*Table, error) { return table.ReadCSV(name, r) }

// ReadCSVFile reads a table from a CSV file.
func ReadCSVFile(path string) (*Table, error) { return table.ReadCSVFile(path) }

// Pair identifies a candidate tuple pair by row indices into A and B.
type Pair = blocker.Pair

// PairSet is a blocker's candidate set C.
type PairSet = blocker.PairSet

// NewPairSet returns an empty candidate set, for callers that obtained C
// from an external system and need to hand it to the debugger.
func NewPairSet() *PairSet { return blocker.NewPairSet() }

// Blocker produces a candidate set for two tables: attribute equivalence,
// hash, overlap, similarity-based, rule-based, or a union of these.
type Blocker = blocker.Blocker

// AttrEquivalence returns an attribute-equivalence blocker
// (keep pairs agreeing on attr).
func AttrEquivalence(attr string) Blocker { return blocker.NewAttrEquivalence(attr) }

// UnionBlocker combines blockers, keeping the union of their outputs.
func UnionBlocker(id string, members ...Blocker) Blocker {
	return blocker.NewUnion(id, members...)
}

// ParseDropRule parses a Magellan-style kill rule (pairs satisfying the
// expression are dropped), e.g. "title_jac_word < 0.4" or
// "price_absdiff > 20 OR title_cos_word < 0.5".
func ParseDropRule(id, src string) (Blocker, error) {
	e, err := blocker.Parse(src)
	if err != nil {
		return nil, err
	}
	return blocker.DropRule(id, e), nil
}

// ParseKeepRule parses a keep condition (pairs satisfying the expression
// survive), e.g. "attr_equal_city OR lastword(name)_ed <= 2".
func ParseKeepRule(id, src string) (Blocker, error) {
	e, err := blocker.Parse(src)
	if err != nil {
		return nil, err
	}
	return blocker.KeepRule(id, e), nil
}

// Options configures a debugging session; zero values reproduce the
// paper's settings (k=1000, n=20, 3 active-learning iterations, stop
// after 2 matchless iterations).
type Options = core.Options

// Debugger is one debugging session for a blocker's output.
type Debugger = core.Debugger

// Explanation diagnoses why blocking killed a match.
type Explanation = core.Explanation

// New builds a debugging session from tables A, B and the blocker output
// C. The debugger never sees the blocker itself.
func New(a, b *Table, c *PairSet, opt Options) (*Debugger, error) {
	return core.New(a, b, c, opt)
}

// Observability surface: tracing, per-pair provenance, structured logging.

// Tracer collects hierarchical span trees from a debugging session; set
// Options.Trace, then export with WriteChromeTrace (chrome://tracing /
// Perfetto) or WriteTree (human-readable dump).
type Tracer = telemetry.Tracer

// TraceSpan is one node of a trace tree.
type TraceSpan = telemetry.TraceSpan

// NewTracer creates a tracer; pass nil to detach it from the metric
// registry, or telemetry's default registry to bridge span durations into
// the mc_stage_seconds histograms.
func NewTracer() *Tracer { return telemetry.NewTracer(telemetry.Default()) }

// Provenance records every pipeline decision that touches a watched pair
// (blocker keep/drop, join suppression/score/rank, verifier lineage). Pass
// it to RunBlocker and set Options.Provenance, then render the lineage
// with Debugger.WriteExplainReport.
type Provenance = telemetry.Provenance

// NewProvenance returns a recorder watching the given (aRow, bRow) pairs.
func NewProvenance(pairs ...[2]int) *Provenance { return telemetry.NewProvenance(pairs...) }

// RunBlocker applies q to a and b like q.Block, and also observes the
// call: it hangs a blocker.block span per rule under span (union members
// nest under the union's span) and records in prov whether each rule kept
// or dropped each watched pair. Either observer may be nil.
func RunBlocker(q Blocker, a, b *Table, span *TraceSpan, prov *Provenance) (*PairSet, error) {
	return blocker.Run(q, a, b, span, prov)
}

// NewLogger returns a structured logger whose records gain
// trace_id/span_id correlation when logged with a context carrying a
// TraceSpan. Set Options.Logger to hear the debugger's progress.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return telemetry.NewLogger(w, level)
}
