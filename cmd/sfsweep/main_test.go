package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for sfsweep: re-executed with
// SFSWEEP_TEST_MAIN=1 it runs main() on its arguments, exit status
// included.
func TestMain(m *testing.M) {
	if os.Getenv("SFSWEEP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func sfsweepCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SFSWEEP_TEST_MAIN=1")
	return cmd
}

// artifact is what a run's results.json says about its jobs.
type artifact struct {
	Stats   struct{ Total, Executed, Cached, Failed, Skipped int }
	Results []struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	} `json:"results"`
}

func readArtifact(t *testing.T, dir string) artifact {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	return art
}

// TestInterruptThenResume: SIGINT once the first of eight jobs is done
// stops the sweep after its in-flight job, exits 130 with the "re-run to
// resume" hint, and leaves the finished points in results.json and the
// cache. Re-running the same command executes only the points not
// cached: executed + cached == total, and every point the interrupted
// run finished is a cache hit.
func TestInterruptThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	const total = 8
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	// One worker and long measure windows, ~0.15 s a job: the signal
	// lands with most of the grid still to run.
	if err := os.WriteFile(spec, []byte(`{
		"name": "interrupt",
		"topologies": [{"kind": "SF", "q": 5}],
		"algos": ["min", "val"],
		"patterns": ["uniform", "shift"],
		"loads": [0.1, 0.2],
		"seeds": [1],
		"sim": {"warmup": 50, "measure": 10000, "drain": 500}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")

	cmd := sfsweepCmd("-spec", spec, "-out", out, "-workers", "1", "-progress-every", "0", "-debug-addr", "127.0.0.1:0")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	stderr := bufio.NewReader(pipe)
	line, err := stderr.ReadString('\n')
	vars, ok := strings.CutPrefix(strings.TrimSpace(line), "sfsweep: debug listener on ")
	if err != nil || !ok {
		t.Fatalf("no debug listener line: %q, %v", line, err)
	}
	if err := waitDone(vars, time.Minute); err != nil {
		t.Fatal(err)
	}
	cmd.Process.Signal(syscall.SIGINT)
	timer := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	rest, _ := io.ReadAll(stderr)
	timer.Stop()
	cmd.Wait()
	if exit := cmd.ProcessState.ExitCode(); exit != 130 || !strings.Contains(string(rest), "re-run to resume") {
		t.Fatalf("SIGINT mid-sweep: exit %d, stderr after the debug line:\n%s", exit, rest)
	}
	first := readArtifact(t, out)
	earlier := make(map[string]bool)
	for _, r := range first.Results {
		earlier[r.Key] = true
	}
	if n := len(earlier); n < 1 || n >= total || first.Stats.Skipped != total-n {
		t.Fatalf("interrupted run finished %d of %d points, stats %+v", n, total, first.Stats)
	}
	t.Logf("interrupted after %d of %d points", len(earlier), total)

	if b, err := sfsweepCmd("-spec", spec, "-out", out, "-progress-every", "0").CombinedOutput(); err != nil {
		t.Fatalf("re-run: %v\n%s", err, b)
	}
	second := readArtifact(t, out)
	if s := second.Stats; s.Total != total || s.Executed+s.Cached != total || s.Cached != len(earlier) || s.Failed != 0 {
		t.Errorf("re-run stats %+v, want %d cached and %d executed", s, len(earlier), total-len(earlier))
	}
	for _, r := range second.Results {
		if r.Cached != earlier[r.Key] {
			t.Errorf("re-run point %s: cached %v, finished before the interrupt %v", r.Key, r.Cached, earlier[r.Key])
		}
	}
}

// waitDone polls the debug page at vars until the sweep's progress shows
// a finished job.
func waitDone(vars string, limit time.Duration) error {
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var page struct {
			Slimfly struct {
				Progress struct{ Done int } `json:"sweep_progress"`
			}
		}
		resp, err := http.Get(vars)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if page.Slimfly.Progress.Done > 0 {
			return nil
		}
	}
	return fmt.Errorf("no job finished within %s", limit)
}
