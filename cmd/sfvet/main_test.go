package main

import (
	"os"
	"strings"
	"testing"
)

// TestRepoInvariantsClean is the integration gate: the whole module must
// satisfy its own invariants. A failure here reproduces locally with
//
//	go run ./cmd/sfvet ./...
func TestRepoInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	if code := run([]string{"slimfly/..."}); code != 0 {
		t.Fatalf("sfvet slimfly/... exited %d, want 0 (run `go run ./cmd/sfvet ./...` for the diagnostics)", code)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	if code := run([]string{"-checks", "nope"}); code != 1 {
		t.Fatalf("-checks nope exited %d, want 1", code)
	}
}

func TestList(t *testing.T) {
	out := captureStdout(t, func() {
		if code := run([]string{"-list"}); code != 0 {
			t.Fatalf("-list exited %d, want 0", code)
		}
	})
	for _, name := range []string{"hotalloc", "detrand"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output lacks analyzer %q:\n%s", name, out)
		}
	}
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	return string(buf[:n])
}
