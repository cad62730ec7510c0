// Package table provides the tabular data model used throughout
// MatchCatcher: schemas, tuples, tables, attribute statistics, and CSV
// input/output.
//
// Values are stored as strings; the empty string denotes a missing value.
// Typing (string vs. numeric vs. categorical vs. boolean) is inferred where
// it is needed, by the config generator's attribute classifier.
package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// Missing is the in-table representation of a missing value.
const Missing = ""

// Table is an in-memory relation: a schema plus rows of string values.
// The zero value is an empty table with no schema; use New to create one
// with a schema.
type Table struct {
	name  string
	attrs []string
	index map[string]int // attribute name -> column position
	rows  [][]string
}

// New creates an empty table with the given name and schema. Attribute
// names must be unique and non-empty.
func New(name string, attrs []string) (*Table, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("table %q: schema must have at least one attribute", name)
	}
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("table %q: attribute %d has empty name", name, i)
		}
		if _, dup := idx[a]; dup {
			return nil, fmt.Errorf("table %q: duplicate attribute %q", name, a)
		}
		idx[a] = i
	}
	return &Table{name: name, attrs: append([]string(nil), attrs...), index: idx}, nil
}

// MustNew is like New but panics on error. It is intended for tests and
// examples with literal schemas.
func MustNew(name string, attrs []string) *Table {
	t, err := New(name, attrs)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Attrs returns the schema as a copy.
func (t *Table) Attrs() []string { return append([]string(nil), t.attrs...) }

// NumAttrs returns the number of attributes.
func (t *Table) NumAttrs() int { return len(t.attrs) }

// NumRows returns the number of tuples.
func (t *Table) NumRows() int { return len(t.rows) }

// AttrIndex returns the column position of the named attribute, or -1 if
// the attribute is not in the schema.
func (t *Table) AttrIndex(attr string) int {
	if i, ok := t.index[attr]; ok {
		return i
	}
	return -1
}

// HasAttr reports whether the named attribute is in the schema.
func (t *Table) HasAttr(attr string) bool { return t.AttrIndex(attr) >= 0 }

// Append adds a tuple. The row must have exactly one value per attribute.
func (t *Table) Append(row []string) error {
	if len(row) != len(t.attrs) {
		return fmt.Errorf("table %q: row has %d values, schema has %d attributes", t.name, len(row), len(t.attrs))
	}
	t.rows = append(t.rows, append([]string(nil), row...))
	return nil
}

// MustAppend is like Append but panics on error.
func (t *Table) MustAppend(row []string) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Row returns the i-th tuple. The returned slice is owned by the table and
// must not be modified.
func (t *Table) Row(i int) []string { return t.rows[i] }

// Value returns the value of attribute column j in tuple i.
func (t *Table) Value(i, j int) string { return t.rows[i][j] }

// ValueByName returns the value of the named attribute in tuple i, and
// whether the attribute exists.
func (t *Table) ValueByName(i int, attr string) (string, bool) {
	j, ok := t.index[attr]
	if !ok {
		return "", false
	}
	return t.rows[i][j], true
}

// Column returns all values of attribute column j as a copy.
func (t *Table) Column(j int) []string {
	col := make([]string, len(t.rows))
	for i, r := range t.rows {
		col[i] = r[j]
	}
	return col
}

// Slice returns a new table holding the first n tuples (or all tuples if n
// exceeds the table size). Rows are shared, not copied; the result must be
// treated as read-only. It is used by the scaling experiments (Figure 9).
func (t *Table) Slice(n int) *Table {
	if n > len(t.rows) {
		n = len(t.rows)
	}
	return &Table{name: t.name, attrs: t.attrs, index: t.index, rows: t.rows[:n]}
}

// String returns a short description of the table.
func (t *Table) String() string {
	return fmt.Sprintf("%s(%s)[%d rows]", t.name, strings.Join(t.attrs, ","), len(t.rows))
}

// ReadCSV reads a table from CSV data. The first record is the header
// (the schema).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table %q: reading header: %w", name, err)
	}
	for i, a := range header {
		header[i] = foldCRLF(a)
	}
	t, err := New(name, header)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table %q: reading row %d: %w", name, len(t.rows)+1, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("table %q: row %d has %d fields, header has %d", name, len(t.rows)+1, len(rec), len(header))
		}
		for i, v := range rec {
			rec[i] = foldCRLF(v)
		}
		t.rows = append(t.rows, rec)
	}
	return t, nil
}

// foldCRLF folds every run of \r before a \n into the \n. encoding/csv
// reads each line's \r\n as \n, so a quoted field can still hold a \r\n
// (an input \r\r\n), but one written back would read as \n: no CSV
// spelling keeps it. ReadCSV folds attribute names and values alike, so
// what it returns is already in round-trip form.
func foldCRLF(v string) string {
	for strings.Contains(v, "\r\n") {
		v = strings.ReplaceAll(v, "\r\n", "\n")
	}
	return v
}

// ReadCSVFile reads a table from the CSV file at path, using the file's
// base name (without extension) as the table name.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, ".csv")
	return ReadCSV(name, f)
}

// WriteCSV writes the table as CSV with a header record. A one-column row
// whose value is empty is written as `""`: encoding/csv would write a
// blank line, which ReadCSV skips, dropping the row and shifting every
// later row's id.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.attrs); err != nil {
		return err
	}
	for _, row := range t.rows {
		if len(row) == 1 && row[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the CSV file at path.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
