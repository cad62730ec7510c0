package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/simfunc"
	"matchcatcher/internal/table"
)

func TestSimilarCandidates(t *testing.T) {
	a, b, c, _ := figure1(t)
	d, err := New(a, b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (a1,b1) is a killed-off match with a near-identical name and a
	// misspelt city; its most similar candidates should not include
	// itself and should be valid E pairs.
	ref := blocker.Pair{A: 0, B: 0}
	sim := d.SimilarCandidates(ref, 3)
	if len(sim) == 0 {
		t.Fatal("no similar candidates")
	}
	e := d.Candidates()
	for _, p := range sim {
		if p == ref {
			t.Error("reference pair returned as its own neighbour")
		}
		if !e.Contains(p.A, p.B) {
			t.Errorf("similar candidate %v is not in E", p)
		}
	}
	// Asking for more neighbours than exist returns all of E minus ref.
	all := d.SimilarCandidates(ref, 10_000)
	if len(all) != d.CandidateCount()-1 {
		t.Errorf("all neighbours = %d, want %d", len(all), d.CandidateCount()-1)
	}
}

func TestCuratedAttrs(t *testing.T) {
	a, b, c, _ := figure1(t)
	d, err := New(a, b, c, Options{Config: config.Options{CuratedAttrs: []string{"Name"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Configs().Promising; len(got) != 1 || got[0] != "Name" {
		t.Fatalf("promising = %v", got)
	}
	if got := len(d.Lists()); got != 1 {
		t.Errorf("lists = %d, want 1", got)
	}
	// Curation can even force attributes the classifier would drop
	// (numeric Age).
	d2, err := New(a, b, c, Options{Config: config.Options{CuratedAttrs: []string{"Name", "Age"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d2.Configs().Promising); got != 2 {
		t.Errorf("curated promising = %v", d2.Configs().Promising)
	}
	// Unknown attributes are rejected.
	if _, err := New(a, b, c, Options{Config: config.Options{CuratedAttrs: []string{"Nope"}}}); err == nil {
		t.Error("want error for unknown curated attribute")
	}
}

func TestReport(t *testing.T) {
	a, b, c, gold := figure1(t)
	d, err := New(a, b, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := func(x, y int) bool { return gold.Contains(x, y) }
	d.Run(u)
	rep := d.Report()
	if rep.RowsA != 5 || rep.RowsB != 4 || rep.BlockerOut != 3 {
		t.Errorf("report shape = %+v", rep)
	}
	if len(rep.Matches) != 2 {
		t.Fatalf("matches = %d", len(rep.Matches))
	}
	if len(rep.Matches[0].Notes) == 0 || len(rep.Matches[0].ValuesA) == 0 {
		t.Error("match report missing details")
	}
	var buf bytes.Buffer
	if err := d.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if decoded["e_size"] == nil || decoded["matches"] == nil {
		t.Errorf("JSON keys missing: %v", decoded)
	}
}

// TestCorpusAttrLimit: the corpus keeps attribute sets in 16-bit masks,
// so a session over more than config.MaxAttrs promising attributes must
// fail up front instead of joining on truncated masks.
func TestCorpusAttrLimit(t *testing.T) {
	attrs := make([]string, config.MaxAttrs+1)
	row := make([]string, len(attrs))
	for i := range attrs {
		attrs[i] = fmt.Sprintf("f%d", i)
		row[i] = fmt.Sprintf("word%d shared", i)
	}
	a, b := table.MustNew("A", attrs), table.MustNew("B", attrs)
	a.MustAppend(row)
	b.MustAppend(row)
	c := blocker.NewPairSet()
	for _, opt := range []config.Options{
		{CuratedAttrs: attrs, MaxPromising: len(attrs)},
		{MaxPromising: len(attrs)},
	} {
		_, err := New(a, b, c, Options{Config: opt})
		if err == nil || !strings.Contains(err.Error(), "corpus limit of 16 attributes") {
			t.Errorf("%+v: err = %v, want the 16-attribute corpus limit", opt, err)
		}
	}
	// At the limit the session runs, and identical rows score 1 under
	// the highest attribute bit.
	d, err := New(a, b, c, Options{Config: config.Options{CuratedAttrs: attrs[:config.MaxAttrs], MaxPromising: config.MaxAttrs}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.cor.Sim(0, 0, 1<<(config.MaxAttrs-1), simfunc.Jaccard); got != 1 {
		t.Errorf("Sim under attribute %d = %v, want 1", config.MaxAttrs-1, got)
	}
}
