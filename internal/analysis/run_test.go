package analysis_test

import (
	"maps"
	"path/filepath"
	"strings"
	"testing"

	"slimfly/internal/analysis"
	"slimfly/internal/analysis/hotalloc"
)

// TestCrossPackageFacts pins the one thing the analysistest fixtures
// (single-package) and TestRepoInvariantsClean (always clean) cannot: a
// //sf:hotpath mark exported while analysing package a silences the call
// check in dependent package b, and its absence is reported. The fixture
// is its own stdlib-only module so `go list` works offline.
func TestCrossPackageFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list and type-checks from source; skipped in -short mode")
	}
	for _, tc := range []struct {
		pattern string
		roots   map[string]bool // import path -> Root
	}{
		{"./...", map[string]bool{"twopkg/a": true, "twopkg/b": true}},
		// Only b is asked about: a is still loaded and analysed first, so
		// its facts reach b, but it is not a root.
		{"./b", map[string]bool{"twopkg/a": false, "twopkg/b": true}},
	} {
		t.Run(tc.pattern, func(t *testing.T) {
			loader := analysis.NewLoader(filepath.Join("testdata", "twopkg"))
			pkgs, err := loader.Load(tc.pattern)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, p := range pkgs {
				got[p.ImportPath] = p.Root
			}
			if !maps.Equal(got, tc.roots) {
				t.Fatalf("loaded %v (import path -> Root), want %v", got, tc.roots)
			}

			diags, err := analysis.Run(loader.Fset, []*analysis.Analyzer{hotalloc.Analyzer}, pkgs)
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != 1 {
				var sb strings.Builder
				analysis.Print(&sb, loader.Fset, diags)
				t.Fatalf("got %d diagnostics, want exactly 1 (the a.Unmarked call):\n%s", len(diags), sb.String())
			}
			d := diags[0]
			pos := loader.Fset.Position(d.Pos)
			if filepath.Base(pos.Filename) != "b.go" || pos.Line != 10 {
				t.Errorf("diagnostic at %s, want b.go:10 (the a.Unmarked call)", pos)
			}
			if !strings.Contains(d.Message, "twopkg/a.Unmarked") || strings.Contains(d.Message, "a.Marked") {
				t.Errorf("diagnostic %q, want it to name twopkg/a.Unmarked only", d.Message)
			}
		})
	}
}
