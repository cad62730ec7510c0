package core

import (
	"encoding/json"
	"io"

	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/telemetry"
)

// MatchReport is one confirmed killed-off match with its rendered values
// and explanation.
type MatchReport struct {
	ARow    int      `json:"a_row"`
	BRow    int      `json:"b_row"`
	ValuesA []string `json:"values_a"`
	ValuesB []string `json:"values_b"`
	Notes   []string `json:"notes"`
}

// Report is a JSON-encodable summary of a debugging session, for piping
// the debugger's findings into downstream tooling.
type Report struct {
	TableA      string        `json:"table_a"`
	TableB      string        `json:"table_b"`
	RowsA       int           `json:"rows_a"`
	RowsB       int           `json:"rows_b"`
	BlockerOut  int           `json:"candidate_set_size"`
	Promising   []string      `json:"promising_attrs"`
	Configs     int           `json:"configs"`
	Candidates  int           `json:"e_size"`
	Iterations  int           `json:"iterations"`
	Matches     []MatchReport `json:"matches"`
	TopProblems []string      `json:"top_problems"`
	JoinStats   ssjoin.Stats  `json:"join_stats"`
	// Telemetry is the session registry's snapshot at report time: every
	// mc_* series (counters, gauges, stage/iteration histograms), so a
	// report is self-describing about prune rates and per-stage latency
	// without scraping /metrics.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Provenance is the per-pair decision lineage for every watched pair
	// (mcdebug -explain): blocker keep/drop, join suppression / score /
	// rank, verifier pool position, shown/labeled events. Present only
	// when the session watched pairs.
	Provenance []*telemetry.PairTrace `json:"provenance,omitempty"`
}

// Report summarizes the session so far (typically called once Done).
// The whole summary is assembled under the session lock, so a report
// taken while another goroutine drives the session is a consistent cut,
// never half an iteration.
func (d *Debugger) Report() Report {
	return d.report(true)
}

// CanonicalReport is Report without the telemetry snapshot. Everything
// left — the ranked matches, provenance lineage, join statistics — is a
// pure function of (tables, blocker output, seed, join options), so two
// same-seed sessions produce byte-identical canonical reports no matter
// which transport drove them (CLI loop or HTTP session) and no matter
// how fast the machine ran. The full Report adds wall-clock histograms
// and is correspondingly non-reproducible byte-for-byte.
func (d *Debugger) CanonicalReport() Report {
	return d.report(false)
}

func (d *Debugger) report(telemetrySnapshot bool) Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	matches := d.verif.Matches()
	// One explanation per match feeds both its notes and the problem
	// summary.
	exs := d.explainAll(matches)
	r := Report{
		TableA:      d.a.Name(),
		TableB:      d.b.Name(),
		RowsA:       d.a.NumRows(),
		RowsB:       d.b.NumRows(),
		BlockerOut:  d.c.Len(),
		Promising:   d.res.Promising,
		Configs:     len(d.join.Lists),
		Candidates:  d.verif.NumCandidates(),
		Iterations:  d.verif.Iterations(),
		TopProblems: topProblems(problemCount(exs), 5),
		JoinStats:   d.join.Stats,
	}
	if telemetrySnapshot {
		r.Telemetry = d.reg.Snapshot()
	}
	if d.prov.Active() {
		r.Provenance = d.prov.Traces()
	}
	for i, m := range matches {
		r.Matches = append(r.Matches, MatchReport{
			ARow:    m.A,
			BRow:    m.B,
			ValuesA: d.RowA(m.A),
			ValuesB: d.RowB(m.B),
			Notes:   exs[i].Notes,
		})
	}
	return r
}

// WriteReport writes the session report as indented JSON.
func (d *Debugger) WriteReport(w io.Writer) error {
	return writeReportJSON(w, d.Report())
}

// WriteCanonicalReport writes the telemetry-free canonical report as
// indented JSON — the byte-stable artifact the serve/CLI determinism
// tests diff.
func (d *Debugger) WriteCanonicalReport(w io.Writer) error {
	return writeReportJSON(w, d.CanonicalReport())
}

func writeReportJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
