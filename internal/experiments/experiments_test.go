package experiments

import (
	"strings"
	"testing"
)

// Experiments run at a small scale in tests; the full-scale runs are
// driven by cmd/mcbench and the root benchmarks.
func smallEnv() *Env { return NewEnv(0.08) }

func TestEnvCachesDatasets(t *testing.T) {
	e := smallEnv()
	d1, err := e.Dataset("F-Z")
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := e.Dataset("F-Z")
	if d1 != d2 {
		t.Error("dataset not cached")
	}
	if _, err := e.Dataset("nope"); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestTable2BlockersCoverPaper(t *testing.T) {
	specs := Table2Blockers()
	if len(specs) != 25 {
		t.Fatalf("specs = %d, want 25", len(specs))
	}
	byDataset := map[string]int{}
	for _, s := range specs {
		byDataset[s.Dataset]++
	}
	want := map[string]int{"A-G": 4, "W-A": 4, "A-D": 4, "F-Z": 4, "M1": 4, "M2": 5}
	for ds, n := range want {
		if byDataset[ds] != n {
			t.Errorf("%s: %d blockers, want %d", ds, byDataset[ds], n)
		}
	}
	if got := len(SpecsFor("M2")); got != 5 {
		t.Errorf("SpecsFor(M2) = %d", got)
	}
}

func TestRunTable1(t *testing.T) {
	e := smallEnv()
	rows, err := e.RunTable1([]string{"F-Z", "Papers"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Attrs != 7 || rows[0].Matches <= 0 {
		t.Errorf("F-Z row = %+v", rows[0])
	}
	if rows[1].Matches != -1 {
		t.Errorf("Papers matches should be unknown, got %d", rows[1].Matches)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "unknown") || !strings.Contains(out, "F-Z") {
		t.Errorf("format:\n%s", out)
	}
}

func TestRunTable3RowFZ(t *testing.T) {
	e := NewEnv(1) // F-Z is tiny even at full scale
	var spec Spec
	for _, s := range SpecsFor("F-Z") {
		if s.Label == "HASH" {
			spec = s
		}
	}
	row, err := e.RunTable3Row(spec, DebugOptions{K: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if row.C == 0 {
		t.Error("C empty")
	}
	if row.MD <= 0 {
		t.Errorf("M_D = %d; the city hash blocker should kill some matches", row.MD)
	}
	if row.ME <= 0 || row.ME > row.MD {
		t.Errorf("M_E = %d of M_D %d", row.ME, row.MD)
	}
	if row.F <= 0 || row.F > row.ME {
		t.Errorf("F = %d of M_E %d", row.F, row.ME)
	}
	if row.I <= 0 {
		t.Errorf("I = %d", row.I)
	}
	out := FormatTable3([]Table3Row{row})
	if !strings.Contains(out, "F-Z") || !strings.Contains(out, "HASH") {
		t.Errorf("format:\n%s", out)
	}
}

// TestRunTable3RowM2Recall pins the Table-3 recall counts of one M2
// debug session (HASH1, 1/10 scale, k=1000, seed 1). F, M_E and I are
// deterministic for a fixed seed and do not depend on the host, so a
// change in the blocker, the join, the verifier or the data generator
// that moves any of them fails here, on every host.
func TestRunTable3RowM2Recall(t *testing.T) {
	spec := SpecsFor("M2")[0]
	if spec.Label != "HASH1" {
		t.Fatalf("SpecsFor(M2)[0] = %s, want HASH1", spec.Label)
	}
	row, err := NewEnv(0.1).RunTable3Row(spec, DebugOptions{K: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := [3]int{row.F, row.ME, row.I}, [3]int{53, 55, 6}; got != want {
		t.Errorf("M2/HASH1 F, M_E, I = %v, want %v", got, want)
	}
}

func TestRunTable4(t *testing.T) {
	e := smallEnv()
	specs := Table4Specs()
	if len(specs) != 5 {
		t.Fatalf("table 4 specs = %d", len(specs))
	}
	row, err := e.RunTable4Row(specs[3], 3, DebugOptions{K: 100, Seed: 2}) // F-Z R
	if err != nil {
		t.Fatal(err)
	}
	if row.Iters == 0 || row.Iters > 3 {
		t.Errorf("iters = %d", row.Iters)
	}
	if row.LabelTime <= 0 {
		t.Error("label time missing")
	}
	out := FormatTable4([]Table4Row{row})
	if !strings.Contains(out, "mins") {
		t.Errorf("format:\n%s", out)
	}
}

func TestRunHashDebugImprovesRecall(t *testing.T) {
	e := NewEnv(1)
	var spec Spec
	for _, s := range BestHashBlockers() {
		if s.Dataset == "F-Z" {
			spec = s
		}
	}
	row, err := e.RunHashDebug(spec, DebugOptions{K: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if row.RecallAfter < row.RecallBefore {
		t.Errorf("repair decreased recall: %.3f -> %.3f", row.RecallBefore, row.RecallAfter)
	}
	if row.Rounds > 0 && len(row.AddedRules) == 0 {
		t.Error("rounds ran but no rules recorded")
	}
	out := FormatHashDebug([]HashDebugRow{row})
	if !strings.Contains(out, "F-Z") {
		t.Errorf("format:\n%s", out)
	}
}

func TestRunLearned(t *testing.T) {
	e := smallEnv()
	rows, err := e.RunLearned(2, DebugOptions{K: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Rules) == 0 || r.C == 0 {
			t.Errorf("degenerate learned row %+v", r)
		}
	}
	specs, err := e.LearnedBlockers(2, 4)
	if err != nil || len(specs) != 2 {
		t.Fatalf("LearnedBlockers: %v %d", err, len(specs))
	}
	out := FormatLearned(rows)
	if !strings.Contains(out, "R1") {
		t.Errorf("format:\n%s", out)
	}
}

func TestRunFig9SmallSweep(t *testing.T) {
	e := NewEnv(0.02)
	specs := SpecsFor("M2")[:1]
	points, err := e.RunFig9("M2", specs, []int{50}, []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Seconds < 0 || p.K != 50 {
			t.Errorf("point = %+v", p)
		}
	}
	out := FormatFig9(points)
	if !strings.Contains(out, "50%") {
		t.Errorf("format:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	e := NewEnv(1)
	spec := SpecsFor("F-Z")[1] // HASH

	mc, err := e.RunMultiConfigAblation([]Spec{spec}, DebugOptions{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	if mc[0].MEMulti < mc[0].MESingle {
		t.Errorf("multi-config found fewer matches: %+v", mc[0])
	}
	if s := FormatMultiConfig(mc); !strings.Contains(s, "F-Z") {
		t.Errorf("format:\n%s", s)
	}

	la, err := e.RunLongAttrAblation([]Spec{spec}, DebugOptions{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	if la[0].MEHandled < 0 || la[0].MD < 0 {
		t.Errorf("long attr row = %+v", la[0])
	}
	_ = FormatLongAttr(la)

	jt, err := e.RunJointAblation([]Spec{spec}, DebugOptions{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	if jt[0].ConfigsRun == 0 || jt[0].Workers < 1 || jt[0].ParallelSec < 0 {
		t.Errorf("joint row = %+v", jt[0])
	}
	_ = FormatJoint(jt)

	vr, err := e.RunVerifierAblation([]Spec{spec}, 5, DebugOptions{K: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if vr[0].FoundAL < 0 || vr[0].FoundWMR < 0 {
		t.Errorf("verifier row = %+v", vr[0])
	}
	_ = FormatVerifierAblation(vr)

	sk, err := e.RunSensitivityK(spec, []int{50, 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(sk) != 2 || sk[1].ME < sk[0].ME {
		t.Errorf("k sweep not monotone: %+v", sk)
	}
	_ = FormatSensitivityK(sk)

	sa, err := e.RunSensitivityAL(spec, []int{0, 3}, 6, DebugOptions{K: 150, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 2 {
		t.Errorf("AL sweep = %+v", sa)
	}
	_ = FormatSensitivityAL(sa)
}
