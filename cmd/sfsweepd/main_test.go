package main

// Process-level tests of the sweep service: sfsweepd runs as this test
// binary re-executed, so its flags, signal handling and exit status are
// the real ones, and sfsweep and sfworker are built from the module's
// source. What the server does in process (validation, entries served as
// stored, lease expiry, drain and resume on one Server) is pinned by
// internal/sweepd's own tests; these pin what only whole processes show:
// the bytes a served sweep shares with a single-box sfsweep run, a
// SIGTERM drain that a restarted process resumes from, and a lost lease
// recovered by a real sfworker.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for sfsweepd: re-executed with
// SFSWEEPD_TEST_MAIN=1 it runs main() on its arguments, exit status
// included.
func TestMain(m *testing.M) {
	if os.Getenv("SFSWEEPD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// smokeSpec is an 8-job grid on SF q=5, formatted with its measure window:
// at 100 cycles the grid runs in tens of milliseconds. The name is not
// part of any job's key or CSV row.
const smokeSpec = `{
  "name": "smoke",
  "topologies": [{"kind": "SF", "q": 5}],
  "algos": ["min", "val"],
  "patterns": ["uniform", "shift"],
  "loads": [0.1, 0.2],
  "seeds": [1],
  "sim": {"warmup": 50, "measure": %d, "drain": 500}
}`

const smokeJobs = 8

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// tool returns the path of the named command (sfsweep or sfworker), built
// from this module's source once per test binary.
func tool(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "sfsweepd-test-"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir, "slimfly/cmd/sfsweep", "slimfly/cmd/sfworker").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, name)
}

// proc is a started process whose stderr is collected line by line.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed at stderr's EOF
	mu   sync.Mutex
	log  strings.Builder
	// ended is set once the process has been waited for.
	ended bool
}

// start runs cmd with its stderr collected. onLine, when non-nil, sees
// each line as it arrives. A process the test leaves running is killed
// at cleanup.
func start(t *testing.T, cmd *exec.Cmd, onLine func(string)) *proc {
	t.Helper()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			p.mu.Lock()
			p.log.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
			if onLine != nil {
				onLine(sc.Text())
			}
		}
	}()
	t.Cleanup(func() {
		if !p.ended {
			cmd.Process.Kill()
			p.wait(t)
		}
	})
	return p
}

// stderr returns what the process has written to stderr so far.
func (p *proc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// wait waits up to a minute for the process to exit (then kills it and
// fails) and returns its exit status and stderr.
func (p *proc) wait(t *testing.T) (exit int, stderr string) {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		p.cmd.Process.Kill()
		<-p.done
		t.Errorf("%s did not exit within a minute", filepath.Base(p.cmd.Path))
	}
	p.cmd.Wait()
	p.ended = true
	return p.cmd.ProcessState.ExitCode(), p.stderr()
}

// stop sends SIGTERM and requires exit status 0.
func (p *proc) stop(t *testing.T) string {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	exit, stderr := p.wait(t)
	if exit != 0 {
		t.Errorf("%s exited %d after SIGTERM:\n%s", filepath.Base(p.cmd.Path), exit, stderr)
	}
	return stderr
}

// sfsweepd starts the server on a port the kernel picks and returns it
// with its base URL, read from the "listening on" line.
func sfsweepd(t *testing.T, args ...string) (*proc, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "SFSWEEPD_TEST_MAIN=1")
	addr := make(chan string, 1)
	p := start(t, cmd, func(line string) {
		if a, ok := strings.CutPrefix(line, "sfsweepd: listening on "); ok {
			a, _, _ = strings.Cut(a, ",")
			addr <- a
		}
	})
	select {
	case a := <-addr:
		return p, "http://" + a
	case <-p.done:
		exit, stderr := p.wait(t)
		t.Fatalf("sfsweepd exited %d before listening:\n%s", exit, stderr)
	case <-time.After(30 * time.Second):
		t.Fatalf("sfsweepd did not report its address:\n%s", p.stderr())
	}
	return nil, ""
}

// client bounds every request, event streams included, so a sweep that
// never finishes fails the test instead of hanging it.
var client = &http.Client{Timeout: time.Minute}

// call makes one request and returns the status and body.
func call(t *testing.T, method, url, token, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// get fetches url, requires 200, and decodes the body into v unless v is
// nil; it returns the body.
func get(t *testing.T, url string, v any) []byte {
	t.Helper()
	code, body := call(t, http.MethodGet, url, "", "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return body
}

// submit posts a sweep spec and returns the sweep's id.
func submit(t *testing.T, base, spec string) string {
	t.Helper()
	code, body := call(t, http.MethodPost, base+"/api/v1/sweeps", "", spec)
	var st struct{ ID string }
	if code != http.StatusAccepted || json.Unmarshal(body, &st) != nil || st.ID == "" {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	return st.ID
}

// sseEvent is one event of a sweep's stream.
type sseEvent struct{ kind, data string }

// events reads a sweep's event stream to its end -- the stream closes
// after the terminal event -- calling onEvent on each event as it
// arrives.
func events(t *testing.T, base, id string, onEvent func(sseEvent)) []sseEvent {
	t.Helper()
	resp, err := client.Get(base + "/api/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []sseEvent
	var ev sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if k, ok := strings.CutPrefix(line, "event: "); ok {
			ev.kind = k
		} else if d, ok := strings.CutPrefix(line, "data: "); ok {
			ev.data = d
		} else if line == "" && ev.kind != "" {
			evs = append(evs, ev)
			if onEvent != nil {
				onEvent(ev)
			}
			ev = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("event stream of %s: %v", id, err)
	}
	return evs
}

// checkCompleted requires a stream of smokeJobs results that ends with
// the "done" event.
func checkCompleted(t *testing.T, evs []sseEvent) {
	t.Helper()
	results := 0
	for _, ev := range evs {
		if ev.kind == "result" {
			results++
		}
	}
	if results != smokeJobs || len(evs) == 0 || evs[len(evs)-1].kind != "done" {
		t.Fatalf("event stream: %d results of %d events, want %d and a closing done event", results, len(evs), smokeJobs)
	}
}

// sfsweepCSV runs spec single-box through sfsweep into fresh directories
// and returns its results.csv.
func sfsweepCSV(t *testing.T, spec string) []byte {
	t.Helper()
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if b, err := exec.Command(tool(t, "sfsweep"), "-spec", specPath, "-out", out, "-progress-every", "0").CombinedOutput(); err != nil {
		t.Fatalf("sfsweep: %v\n%s", err, b)
	}
	csv, err := os.ReadFile(filepath.Join(out, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return csv
}

// cachedKeys lists the keys of the entries under a cache directory.
func cachedKeys(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, len(files))
	for _, f := range files {
		keys[strings.TrimSuffix(filepath.Base(f), ".json")] = true
	}
	return keys
}

// TestAddressTakenExits1: the server binds before it reports, so a second
// server on a taken address says why it failed and exits 1 without
// claiming to listen.
func TestAddressTakenExits1(t *testing.T) {
	first, base := sfsweepd(t, "-cache", "")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", strings.TrimPrefix(base, "http://"), "-cache", "")
	cmd.Env = append(os.Environ(), "SFSWEEPD_TEST_MAIN=1")
	out, _ := cmd.CombinedOutput()
	if exit := cmd.ProcessState.ExitCode(); exit != 1 || !strings.Contains(string(out), "address already in use") || strings.Contains(string(out), "listening on") {
		t.Errorf("second sfsweepd on %s: exit %d, output:\n%s", base, exit, out)
	}
	first.stop(t)
}

// TestServedCSVMatchesSfsweep: a sweep submitted to sfsweepd streams its
// eight results and a closing done event, and the CSV the server serves
// is byte-identical to the results.csv of a single-box sfsweep run of the
// same spec -- both execute through sweep.Execute. SIGTERM on an idle
// server drains and exits 0.
func TestServedCSVMatchesSfsweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	spec := fmt.Sprintf(smokeSpec, 100)
	d, base := sfsweepd(t, "-cache", t.TempDir())
	id := submit(t, base, spec)
	checkCompleted(t, events(t, base, id, nil))
	served := get(t, base+"/api/v1/sweeps/"+id+"/results?format=csv", nil)
	if want := sfsweepCSV(t, spec); !bytes.Equal(served, want) {
		t.Errorf("served CSV differs from sfsweep's results.csv:\n%s\nvs\n%s", served, want)
	}
	if stderr := d.stop(t); !strings.Contains(stderr, "sfsweepd: drained;") {
		t.Errorf("no drain report on stderr:\n%s", stderr)
	}
}

// TestDrainThenResume: SIGTERM on the first result event of a one-worker
// sweep drains the server. It exits 0, the event stream ends with the
// sweep's interrupted state, and the points it reported are exactly the
// entries in the cache: at least the first, not all eight. A server
// restarted on the same cache completes the resubmitted sweep, serving
// every drained point from the cache and executing only the others.
func TestDrainThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	// Long measure windows, ~0.15 s a job: the signal is sent on the
	// first result, so the drain lands with most of the grid queued.
	spec := fmt.Sprintf(smokeSpec, 10000)
	cache := t.TempDir()
	d, base := sfsweepd(t, "-cache", cache, "-workers", "1")
	id := submit(t, base, spec)
	signalled := false
	evs := events(t, base, id, func(ev sseEvent) {
		if ev.kind == "result" && !signalled {
			signalled = true
			d.cmd.Process.Signal(syscall.SIGTERM)
		}
	})
	exit, stderr := d.wait(t)
	if exit != 0 || !strings.Contains(stderr, "sfsweepd: drained;") {
		t.Fatalf("drain: exit %d, stderr:\n%s", exit, stderr)
	}
	var last sseEvent
	if len(evs) > 0 {
		last = evs[len(evs)-1]
	}
	var st struct{ State string }
	if last.kind != "state" || json.Unmarshal([]byte(last.data), &st) != nil || st.State != "interrupted" {
		t.Fatalf("event stream ends with %s %s, want the interrupted state", last.kind, last.data)
	}
	reported := 0
	for _, ev := range evs {
		if ev.kind == "result" {
			reported++
		}
	}
	drained := cachedKeys(t, cache)
	if len(drained) < 1 || len(drained) >= smokeJobs || len(drained) != reported {
		t.Fatalf("drain committed %d of %d points and reported %d, want 1..%d and all reported", len(drained), smokeJobs, reported, smokeJobs-1)
	}
	t.Logf("drain committed %d of %d points", len(drained), smokeJobs)

	d, base = sfsweepd(t, "-cache", cache)
	id = submit(t, base, spec)
	checkCompleted(t, events(t, base, id, nil))
	var art struct {
		Stats struct {
			Total, Executed, Cached, Failed int
		}
		Results []struct {
			Key    string `json:"key"`
			Cached bool   `json:"cached"`
		} `json:"results"`
	}
	get(t, base+"/api/v1/sweeps/"+id+"/results", &art)
	if s := art.Stats; s.Total != smokeJobs || s.Cached != len(drained) || s.Executed != smokeJobs-len(drained) || s.Failed != 0 {
		t.Errorf("resumed stats %+v, want %d cached and %d executed", s, len(drained), smokeJobs-len(drained))
	}
	for _, r := range art.Results {
		if r.Cached != drained[r.Key] {
			t.Errorf("resumed point %s: cached %v, drained before %v", r.Key, r.Cached, drained[r.Key])
		}
	}
	d.stop(t)
}

// TestLostLeaseMatchesSfsweep: on a scheduling-only server
// (-workers -1, -token), a job claimed over HTTP whose lease is never
// renewed expires and is requeued, and one real sfworker finishes the
// sweep. The expiry counter shows the recovery path ran, the lease
// ledger closes (every grant completed or expired, none active, none
// listed, no lease files beside the entries), and the served CSV is
// byte-identical to a single-box sfsweep run: a lost worker is a
// wall-clock event, never a results event. The worker then exits 0 on
// SIGTERM with nothing failed or lost.
func TestLostLeaseMatchesSfsweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	const token = "test-secret"
	spec := fmt.Sprintf(smokeSpec, 100)
	cache := t.TempDir()
	d, base := sfsweepd(t, "-cache", cache, "-workers", "-1", "-token", token, "-lease-sweep", "50ms")
	id := submit(t, base, spec)

	code, body := call(t, http.MethodPost, base+"/api/v1/leases", token, `{"owner": "victim", "ttl_seconds": 0.2}`)
	var grant struct {
		Lease struct{ Owner string }
		Job   *json.RawMessage
	}
	if code != http.StatusCreated || json.Unmarshal(body, &grant) != nil || grant.Lease.Owner != "victim" || grant.Job == nil {
		t.Fatalf("victim's claim: status %d: %s", code, body)
	}

	worker := start(t, exec.Command(tool(t, "sfworker"), "-server", base, "-token", token,
		"-owner", "survivor", "-ttl", "2s", "-poll", "50ms"), nil)
	checkCompleted(t, events(t, base, id, nil))

	var vars struct{ Slimfly map[string]json.RawMessage }
	get(t, base+"/debug/vars", &vars)
	n := func(name string) int64 {
		v, err := strconv.ParseInt(string(vars.Slimfly["sweepd."+name]), 10, 64)
		if err != nil {
			t.Fatalf("/debug/vars sweepd.%s: %v", name, err)
		}
		return v
	}
	if expired := n("leases_expired"); expired < 1 {
		t.Errorf("sweepd.leases_expired = %d: the lost lease never expired", expired)
	}
	if granted, completed, expired, active := n("leases_granted"), n("leases_completed"), n("leases_expired"), n("leases_active"); granted != completed+expired || active != 0 {
		t.Errorf("lease ledger open: %d granted, %d completed, %d expired, %d active", granted, completed, expired, active)
	}
	var leases struct{ Count int }
	if get(t, base+"/api/v1/leases", &leases); leases.Count != 0 {
		t.Errorf("%d leases still listed", leases.Count)
	}
	if _, err := os.Stat(filepath.Join(cache, "leases")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease state beside the entries: %v", err)
	}

	served := get(t, base+"/api/v1/sweeps/"+id+"/results?format=csv", nil)
	if want := sfsweepCSV(t, spec); !bytes.Equal(served, want) {
		t.Errorf("CSV served after a lost lease differs from sfsweep's results.csv:\n%s\nvs\n%s", served, want)
	}

	if stderr := worker.stop(t); !strings.Contains(stderr, " done, 0 failed, 0 lost\n") {
		t.Errorf("sfworker's stats line reports failed or lost jobs:\n%s", stderr)
	}
	d.stop(t)
}
