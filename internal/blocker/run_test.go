package blocker

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// cityTables returns one-column tables: A holds cities x, y, z and B
// holds nine rows whose row 4 is "x", so attribute equality on City
// keeps the pair (0, 4).
func cityTables() (*table.Table, *table.Table) {
	a := table.MustNew("A", []string{"City"})
	for _, c := range []string{"x", "y", "z"} {
		a.MustAppend([]string{c})
	}
	b := table.MustNew("B", []string{"City"})
	for _, c := range []string{"p", "y", "q", "r", "x", "s", "z", "t", "u"} {
		b.MustAppend([]string{c})
	}
	return a, b
}

// provEvents renders (a, b)'s recorded lineage as "blocker:event" strings.
func provEvents(prov *telemetry.Provenance, a, b int) []string {
	var out []string
	for _, ev := range prov.Trace(a, b).Events {
		out = append(out, ev.Attrs["blocker"]+":"+ev.Event)
	}
	return out
}

// gateBlocker holds its Block call until release is closed.
type gateBlocker struct {
	Blocker
	entered, release chan struct{}
}

func (g *gateBlocker) Block(a, b *table.Table) (*PairSet, error) {
	close(g.entered)
	<-g.release
	return g.Blocker.Block(a, b)
}

// TestRunIgnoresUnrelatedBlock: a plain Block call made while a Run is
// in flight must not land in that Run's trace or provenance.
func TestRunIgnoresUnrelatedBlock(t *testing.T) {
	a, b := cityTables()
	tr := telemetry.NewTracer(nil)
	root := tr.Start("root")
	prov := telemetry.NewProvenance([2]int{0, 4})
	g := &gateBlocker{Blocker: NewAttrEquivalence("City"), entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error)
	go func() {
		_, err := Run(g, a, b, root, prov)
		done <- err
	}()
	<-g.entered
	if _, err := (&Hash{ID: "other", Key: AttrKey("City")}).Block(a, b); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	root.End()
	for _, s := range tr.Export() {
		if s.Attrs["blocker"] == "other" {
			t.Errorf("held Run's trace holds the unrelated call's span %+v", s)
		}
	}
	if n := tr.Len(); n != 2 {
		t.Errorf("trace has %d spans, want root + one blocker.block", n)
	}
	if got, want := provEvents(prov, 0, 4), []string{"attr_equal_City:kept"}; !slices.Equal(got, want) {
		t.Errorf("provenance = %v, want %v", got, want)
	}
}

// runUnion runs a two-rule BuildFromRules union on private observers.
func runUnion() (*telemetry.Tracer, *telemetry.Provenance, error) {
	a, b := figure1Tables()
	q, err := BuildFromRules([]string{"attr_equal_City"}, []string{"Name_jac_word>=0.3"}, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := telemetry.NewTracer(nil)
	root := tr.Start("root")
	defer root.End()
	prov := telemetry.NewProvenance([2]int{1, 2}, [2]int{3, 3})
	_, err = Run(q, a, b, root, prov)
	return tr, prov, err
}

// TestRunNestsUnionMembers: every member's blocker.block span is a child
// of the union's span, and members record their events before the union.
func TestRunNestsUnionMembers(t *testing.T) {
	tr, prov, err := runUnion()
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Export()
	ids := map[string]uint64{}
	parents := map[string]uint64{}
	for _, s := range spans {
		if s.Name == "blocker.block" {
			ids[s.Attrs["blocker"]] = s.ID
			parents[s.Attrs["blocker"]] = s.ParentID
		}
	}
	if len(ids) != 3 {
		t.Fatalf("blocker.block spans = %v, want union + 2 members", ids)
	}
	for _, m := range []string{"drop0", "keep0"} {
		if parents[m] != ids["union"] {
			t.Errorf("%s span parent = %d, want the union span %d", m, parents[m], ids["union"])
		}
	}
	if parents["union"] != spans[0].ID {
		t.Errorf("union span parent = %d, want root %d", parents["union"], spans[0].ID)
	}
	// (a2, b3) agree on City "LA", so the drop rule drops them; their
	// names share two of three words, so the keep rule keeps them.
	want := []string{"drop0:dropped", "keep0:kept", "union:kept"}
	if got := provEvents(prov, 1, 2); !slices.Equal(got, want) {
		t.Errorf("provenance = %v, want %v", got, want)
	}
}

// TestRunIsolatesConcurrentCalls: concurrent Runs on private tracers and
// recorders each see exactly their own spans and events (run with -race).
func TestRunIsolatesConcurrentCalls(t *testing.T) {
	_, wantProv, err := runUnion()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(provEvents(wantProv, 1, 2), provEvents(wantProv, 3, 3))
	const n, spans = 8, 4 // root, union, two members
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, prov, err := runUnion()
			if err != nil {
				t.Error(err)
				return
			}
			if tr.Len() != spans {
				t.Errorf("trace has %d spans, want %d", tr.Len(), spans)
			}
			if got := fmt.Sprint(provEvents(prov, 1, 2), provEvents(prov, 3, 3)); got != want {
				t.Errorf("provenance = %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
}
