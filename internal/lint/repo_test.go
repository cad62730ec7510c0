package lint_test

import (
	"path/filepath"
	"testing"

	"matchcatcher/internal/lint"
)

// TestRepoClean is the acceptance gate run as a test: the full analyzer
// suite over the whole module, with compiler escape data feeding
// hotalloc, must report zero active findings — and zero stale
// suppressions, since unused //lint:allow directives surface as active
// findings of the "lint" pseudo-analyzer. The suppressed set is pinned
// exactly, so adding a suppression is a reviewed decision, not drift.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := lint.LoadEscapes(root, "./...")
	if err != nil {
		t.Fatalf("LoadEscapes: %v", err)
	}
	lint.AttachEscapes(pkgs, diags)

	res, err := lint.Run(lint.All(), pkgs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range res.Active() {
		t.Errorf("active finding: %s", f)
	}

	// The repo's deliberate suppressions, by analyzer. Update this map
	// when a new suppression is added with a reviewed reason.
	wantSuppressed := map[string]int{
		"metricname": 1, // mc_stage_seconds cross-package rollup (TraceSpan.End)
	}
	gotSuppressed := map[string]int{}
	for _, f := range res.Suppressed() {
		gotSuppressed[f.Analyzer]++
		if f.Reason == "" {
			t.Errorf("suppressed finding without a reason: %s", f)
		}
	}
	for name, want := range wantSuppressed {
		if gotSuppressed[name] != want {
			t.Errorf("suppressed[%s] = %d, want %d", name, gotSuppressed[name], want)
		}
	}
	for name, got := range gotSuppressed {
		if _, ok := wantSuppressed[name]; !ok {
			t.Errorf("unexpected suppressed findings for %s (%d); extend the reviewed set if deliberate", name, got)
		}
	}
}
