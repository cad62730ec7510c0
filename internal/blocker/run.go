package blocker

import (
	"fmt"
	"strconv"

	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// Run applies q to a and b and observes the call through its arguments
// alone: it opens a blocker.block{blocker=<name>} child of span, sets the
// span's pairs_out, and records a kept/dropped event for every pair prov
// watches. A Union's members run through Run as well, so each member's
// span nests under the union's and its events precede the union's. Any
// other blocker is a leaf, observed once on its final output. Either of
// span and prov may be nil, and concurrent calls with their own span and
// prov never see each other.
func Run(q Blocker, a, b *table.Table, span *telemetry.TraceSpan, prov *telemetry.Provenance) (*PairSet, error) {
	ts := span.Child("blocker.block", telemetry.L("blocker", q.Name()))
	var out *PairSet
	var err error
	if u, ok := q.(*Union); ok {
		out, err = u.union(func(m Blocker) (*PairSet, error) { return Run(m, a, b, ts, prov) })
	} else {
		out, err = q.Block(a, b)
	}
	if err != nil {
		ts.End()
		return nil, err
	}
	n := out.Len()
	ts.SetAttrInt("pairs_out", int64(n))
	ts.End()
	if prov.Active() {
		for _, w := range prov.WatchedPairs() {
			ev := "dropped"
			if out.Contains(w[0], w[1]) {
				ev = "kept"
			}
			prov.Record(w[0], w[1], "blocker", ev,
				telemetry.L("blocker", q.Name()),
				telemetry.L("out_size", strconv.Itoa(n)))
		}
	}
	return out, nil
}

// union merges the members' outputs, each obtained through block: a
// plain Block call for Union.Block, an observed one for Run.
func (u *Union) union(block func(Blocker) (*PairSet, error)) (*PairSet, error) {
	out := NewPairSet()
	for _, m := range u.Members {
		c, err := block(m)
		if err != nil {
			return nil, fmt.Errorf("union %s: member %s: %w", u.ID, m.Name(), err)
		}
		out.Union(c)
	}
	count(u.ID, out)
	return out, nil
}

// count adds one Block call to the process-wide per-blocker counters:
// how many calls ran and how many pairs they kept.
func count(name string, out *PairSet) {
	r := telemetry.Default()
	r.Counter("mc_blocker_pairs_total", telemetry.L("blocker", name)).Add(int64(out.Len()))
	r.Counter("mc_blocker_runs_total", telemetry.L("blocker", name)).Inc()
}
