package table

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzTableCSV checks the CSV boundary on arbitrary bytes: ReadCSV must
// never panic, and any table it accepts must come back identical —
// attributes and every row — through WriteCSV and a second ReadCSV,
// one-column rows with an empty value included.
func FuzzTableCSV(f *testing.F) {
	f.Add([]byte("a\n\"\"\nx\n")) // one-column row with an empty value
	f.Add([]byte("name,city\n\"Dave, Jr.\",New York\n,LA\n"))
	f.Add([]byte("v\n\n\n \n"))
	f.Add([]byte("a,b\n\"multi\nline\",\"q\"\"uote\"\n"))
	f.Add([]byte("a\r\nb\r\n\"c\r\r\nd\"\r\n"))
	f.Add([]byte("\"0\r\r\n0\"")) // the same in an attribute name
	f.Add([]byte("a,a\n1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := ReadCSV("F", bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		got, err := ReadCSV("F", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV output %q: %v", buf.Bytes(), err)
		}
		if !slices.Equal(got.attrs, tb.attrs) {
			t.Fatalf("attrs %q, want %q (written %q)", got.attrs, tb.attrs, buf.Bytes())
		}
		if len(got.rows) != len(tb.rows) {
			t.Fatalf("%d rows, want %d (written %q)", len(got.rows), len(tb.rows), buf.Bytes())
		}
		for i := range tb.rows {
			if !slices.Equal(got.rows[i], tb.rows[i]) {
				t.Fatalf("row %d = %q, want %q (written %q)", i, got.rows[i], tb.rows[i], buf.Bytes())
			}
		}
	})
}
