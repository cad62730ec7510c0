package table

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestNewValidatesSchema(t *testing.T) {
	if _, err := New("t", nil); err == nil {
		t.Fatal("want error for empty schema")
	}
	if _, err := New("t", []string{"a", ""}); err == nil {
		t.Fatal("want error for empty attribute name")
	}
	if _, err := New("t", []string{"a", "a"}); err == nil {
		t.Fatal("want error for duplicate attribute")
	}
	tb, err := New("t", []string{"name", "city"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := tb.NumAttrs(); got != 2 {
		t.Errorf("NumAttrs = %d, want 2", got)
	}
}

func TestAppendAndAccess(t *testing.T) {
	tb := MustNew("A", []string{"name", "city", "age"})
	if err := tb.Append([]string{"Dave Smith", "Altanta", "18"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := tb.Append([]string{"too", "short"}); err == nil {
		t.Fatal("want error for short row")
	}
	if got := tb.NumRows(); got != 1 {
		t.Fatalf("NumRows = %d, want 1", got)
	}
	if got := tb.Value(0, 1); got != "Altanta" {
		t.Errorf("Value(0,1) = %q, want Altanta", got)
	}
	v, ok := tb.ValueByName(0, "age")
	if !ok || v != "18" {
		t.Errorf("ValueByName(0,age) = %q,%v", v, ok)
	}
	if _, ok := tb.ValueByName(0, "nope"); ok {
		t.Error("ValueByName should report missing attribute")
	}
	if got := tb.AttrIndex("city"); got != 1 {
		t.Errorf("AttrIndex(city) = %d, want 1", got)
	}
	if got := tb.AttrIndex("nope"); got != -1 {
		t.Errorf("AttrIndex(nope) = %d, want -1", got)
	}
}

func TestAppendCopiesRow(t *testing.T) {
	tb := MustNew("A", []string{"x"})
	row := []string{"v"}
	tb.MustAppend(row)
	row[0] = "mutated"
	if got := tb.Value(0, 0); got != "v" {
		t.Errorf("table row aliased caller slice: got %q", got)
	}
}

func TestAttrsReturnsCopy(t *testing.T) {
	tb := MustNew("A", []string{"x", "y"})
	attrs := tb.Attrs()
	attrs[0] = "mutated"
	if got := tb.Attrs()[0]; got != "x" {
		t.Errorf("Attrs aliased internal schema: got %q", got)
	}
}

func TestSlice(t *testing.T) {
	tb := MustNew("A", []string{"x"})
	for _, v := range []string{"1", "2", "3"} {
		tb.MustAppend([]string{v})
	}
	s := tb.Slice(2)
	if s.NumRows() != 2 {
		t.Fatalf("Slice(2).NumRows = %d", s.NumRows())
	}
	if s.Value(1, 0) != "2" {
		t.Errorf("Slice value = %q", s.Value(1, 0))
	}
	if got := tb.Slice(99).NumRows(); got != 3 {
		t.Errorf("Slice(99).NumRows = %d, want 3", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := MustNew("A", []string{"name", "city"})
	tb.MustAppend([]string{"Dave, Jr.", "New York"})
	tb.MustAppend([]string{"", "LA"})
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV("A", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.NumRows() != 2 || got.NumAttrs() != 2 {
		t.Fatalf("round trip shape: %v", got)
	}
	if got.Value(0, 0) != "Dave, Jr." {
		t.Errorf("quoted value lost: %q", got.Value(0, 0))
	}
	if got.Value(1, 0) != Missing {
		t.Errorf("missing value lost: %q", got.Value(1, 0))
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("A", strings.NewReader("")); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := ReadCSV("A", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("want error for ragged row")
	}
}

func TestAttrStats(t *testing.T) {
	tb := MustNew("A", []string{"name", "city"})
	tb.MustAppend([]string{"Dave Smith", "Atlanta"})
	tb.MustAppend([]string{"Dan Brown", ""})
	tb.MustAppend([]string{"Dave Smith", "Chicago"})
	tb.MustAppend([]string{"", "Atlanta"})

	s := tb.AttrStatsFor("name")
	if s.NonMissing != 3 {
		t.Errorf("name NonMissing = %d, want 3", s.NonMissing)
	}
	if s.Unique != 2 {
		t.Errorf("name Unique = %d, want 2", s.Unique)
	}
	if want := 3.0 / 4.0; s.NonMissingRatio != want {
		t.Errorf("name NonMissingRatio = %g, want %g", s.NonMissingRatio, want)
	}
	if want := 2.0 / 3.0; math.Abs(s.UniqueRatio-want) > 1e-12 {
		t.Errorf("name UniqueRatio = %g, want %g", s.UniqueRatio, want)
	}
	if want := 2.0; s.AvgTokenLen != want {
		t.Errorf("name AvgTokenLen = %g, want %g", s.AvgTokenLen, want)
	}

	c := tb.AttrStatsFor("city")
	if c.NonMissing != 3 || c.Unique != 2 {
		t.Errorf("city stats = %+v", c)
	}
	if z := tb.AttrStatsFor("nope"); z.NonMissing != 0 || z.EScoreComponent() != 0 {
		t.Errorf("missing attr stats = %+v", z)
	}
}

func TestEScoreComponentIsHarmonicMean(t *testing.T) {
	s := AttrStats{NonMissingRatio: 0.5, UniqueRatio: 1.0}
	want := 2 * 0.5 * 1.0 / 1.5
	if got := s.EScoreComponent(); math.Abs(got-want) > 1e-12 {
		t.Errorf("EScoreComponent = %g, want %g", got, want)
	}
}

func TestAvgTupleTokenLen(t *testing.T) {
	tb := MustNew("A", []string{"name", "desc"})
	tb.MustAppend([]string{"a b", "c d e"})
	tb.MustAppend([]string{"f", ""})
	if got, want := tb.AvgTupleTokenLen(nil), 3.0; got != want {
		t.Errorf("AvgTupleTokenLen(all) = %g, want %g", got, want)
	}
	if got, want := tb.AvgTupleTokenLen([]string{"name"}), 1.5; got != want {
		t.Errorf("AvgTupleTokenLen(name) = %g, want %g", got, want)
	}
	empty := MustNew("E", []string{"x"})
	if got := empty.AvgTupleTokenLen(nil); got != 0 {
		t.Errorf("empty table AvgTupleTokenLen = %g", got)
	}
}

func TestStatsAllAttrs(t *testing.T) {
	tb := MustNew("A", []string{"x", "y"})
	tb.MustAppend([]string{"1", "2"})
	all := tb.Stats()
	if len(all) != 2 || all[0].Attr != "x" || all[1].Attr != "y" {
		t.Errorf("Stats = %+v", all)
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/people.csv"
	tb := MustNew("people", []string{"name", "city"})
	tb.MustAppend([]string{"Dave", "Atlanta"})
	if err := tb.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "people" {
		t.Errorf("name from path = %q", got.Name())
	}
	if got.NumRows() != 1 || got.Value(0, 1) != "Atlanta" {
		t.Errorf("round trip lost data: %v", got)
	}
	if _, err := ReadCSVFile(dir + "/missing.csv"); err == nil {
		t.Error("want error for missing file")
	}
	if err := tb.WriteCSVFile(dir + "/nodir/x.csv"); err == nil {
		t.Error("want error for unwritable path")
	}
}

func TestTableString(t *testing.T) {
	tb := MustNew("T", []string{"a", "b"})
	tb.MustAppend([]string{"1", "2"})
	if got := tb.String(); !strings.Contains(got, "T(a,b)[1 rows]") {
		t.Errorf("String = %q", got)
	}
	if !tb.HasAttr("a") || tb.HasAttr("zz") {
		t.Error("HasAttr wrong")
	}
	col := tb.Column(1)
	if len(col) != 1 || col[0] != "2" {
		t.Errorf("Column = %v", col)
	}
	row := tb.Row(0)
	if len(row) != 2 || row[0] != "1" {
		t.Errorf("Row = %v", row)
	}
}

// TestCountFieldsMatchesFields: the allocation-free counter must agree
// with strings.Fields on every space class — ASCII, the Latin-1 NEL and
// NBSP, wider Unicode spaces — on invalid UTF-8, and on random mixes of
// them.
func TestCountFieldsMatchesFields(t *testing.T) {
	cases := []string{
		"", " ", "a", " a ", "a b", "a  b\tc\nd",
		"x\u0085y", "x y", "x　y", " a b​c",
		"\xff", "a\xffb", "\xff \xfe", "caf\xc3", " \u0085",
		"\v\f\r a",
	}
	parts := []string{"a", "bc", " ", "\t", "\u0085", " ", "　", "\xff", "\xc3", "é", "​"}
	seed := uint32(1)
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for j := 0; j < 8; j++ {
			seed = seed*1664525 + 1013904223
			sb.WriteString(parts[seed>>16%uint32(len(parts))])
		}
		cases = append(cases, sb.String())
	}
	for _, s := range cases {
		if got, want := CountFields(s), len(strings.Fields(s)); got != want {
			t.Errorf("CountFields(%q) = %d, strings.Fields gives %d", s, got, want)
		}
	}
}
