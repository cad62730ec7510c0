package blocker_test

import (
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/datagen"
)

// BenchmarkBlockTable2 runs the paper's four Table-2 blockers for
// Fodors-Zagats (the rules internal/experiments registers for F-Z) on
// the synthetic F-Z tables, one sub-benchmark per rule.
func BenchmarkBlockTable2(b *testing.B) {
	d := datagen.MustGenerate(datagen.FodorsZagats())
	for _, c := range []struct {
		label string
		q     blocker.Blocker
	}{
		{"OL", blocker.MustParseDropRule("fz-ol", "name_overlap_word<2")},
		{"HASH", blocker.MustParseKeepRule("fz-hash", "attr_equal_city")},
		{"SIM", blocker.MustParseDropRule("fz-sim", "addr_jac_3gram<0.3")},
		{"R", blocker.MustParseDropRule("fz-r", "(name_cos_word<0.5 AND type_jac_3gram<0.7) OR addr_jac_3gram<0.3")},
	} {
		b.Run(c.label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.q.Block(d.A, d.B); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
