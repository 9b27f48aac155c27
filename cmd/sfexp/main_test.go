package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for sfexp: re-executed with
// SFEXP_TEST_MAIN=1 it runs main() on its arguments, exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("SFEXP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func sfexp(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SFEXP_TEST_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestList pins the experiment ids and their order: the order "all" runs
// them in, and the ids scripts pass to -exp.
func TestList(t *testing.T) {
	want := strings.Join([]string{
		"fig1", "fig5a", "fig5b", "fig5c", "table2", "table3",
		"diam-resil", "apl-resil", "vc", "fig6", "fig6a", "fig6b", "fig6c", "fig6d",
		"fig8a", "fig8be", "cables", "routers", "cost", "power", "table4", "extensions",
	}, "\n") + "\n"
	out, errOut, exit := sfexp(t, "-list")
	if exit != 0 || out != want || errOut != "" {
		t.Errorf("sfexp -list: exit %d, stderr %q, stdout:\n%s", exit, errOut, out)
	}
}

// TestUsageErrorsExit2: a missing or unknown id, an unknown scale and an
// unknown fig6 pattern are usage errors, reported before anything runs.
func TestUsageErrorsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-exp required"},
		{[]string{"-exp", "fig7"}, `unknown experiment "fig7"`},
		{[]string{"-exp", "fig6*"}, `unknown experiment "fig6*"`},
		{[]string{"-exp", "vc", "-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"-exp", "fig6", "-pattern", "tornado"}, `unknown pattern "tornado"`},
	} {
		out, errOut, exit := sfexp(t, c.args...)
		if exit != 2 || !strings.Contains(errOut, c.want) || out != "" {
			t.Errorf("sfexp %q: exit %d, stdout %q, stderr %q; want exit 2 and %q", c.args, exit, out, errOut, c.want)
		}
	}
}
