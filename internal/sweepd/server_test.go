package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slimfly/internal/export"
	"slimfly/internal/obs"
	"slimfly/internal/sweep"
	"slimfly/internal/sweep/storetest"
)

// specJSON renders a tiny sweep spec: nloads loads on an SF q=5 network
// under MIN/uniform, with short simulation windows. Every load is a
// distinct job, so nloads == job count.
func specJSON(name string, nloads int) string {
	loads := make([]string, nloads)
	for i := range loads {
		loads[i] = strconv.FormatFloat(0.05*float64(i+1), 'g', -1, 64)
	}
	return fmt.Sprintf(`{
		"name": %q,
		"topologies": [{"kind": "SF", "q": 5}],
		"algos": ["min"],
		"patterns": ["uniform"],
		"loads": [%s],
		"seeds": [1],
		"sim": {"warmup": 50, "measure": 100, "drain": 500}
	}`, name, strings.Join(loads, ", "))
}

// newTestServer builds a started server over a fresh cache dir and an
// httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		c, err := sweep.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = c
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps: status %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("POST /sweeps response: %v (%s)", err, body)
	}
	if st.ID == "" {
		t.Fatalf("POST /sweeps returned no id: %s", body)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sweeps/%s: status %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls a sweep until it reaches the wanted terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("sweep %s reached %q, want %q", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %q", id, want)
	return Status{}
}

// postForError posts body to url and decodes the structured error the
// server is expected to answer with.
func postForError(t *testing.T, url, body string) (int, apiError) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	return resp.StatusCode, ae
}

// pendingJobs reads the server queue's unclaimed-job count.
func pendingJobs(srv *Server) int { return srv.queue.Pending() }

// TestSubmitValidation: malformed and invalid specs come back as
// structured 400s before anything is queued.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	post := func(body string) (int, apiError) {
		t.Helper()
		return postForError(t, ts.URL+"/api/v1/sweeps", body)
	}

	if code, ae := post("{not json"); code != http.StatusBadRequest || ae.Error == "" {
		t.Errorf("malformed JSON: status %d, %+v", code, ae)
	}

	// Unknown algo: the 400 carries the scenario UnknownError whole,
	// valid names included.
	bad := strings.Replace(specJSON("bad-algo", 1), `"min"`, `"zigzag"`, 1)
	code, ae := post(bad)
	if code != http.StatusBadRequest || ae.Kind != "unknown_name" {
		t.Fatalf("unknown algo: status %d kind %q (%+v)", code, ae.Kind, ae)
	}
	if ae.Unknown == nil || ae.Unknown.Name != "zigzag" || len(ae.Unknown.Known) == 0 {
		t.Errorf("unknown algo 400 does not enumerate valid names: %+v", ae.Unknown)
	}

	// Unknown top-level field: typos fail loudly.
	if code, _ := post(`{"name":"x","topologies":[{"kind":"SF","q":5}],"algos":["min"],"loads":[0.1],"loadz":[1]}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}

	// Out-of-range load.
	if code, _ := post(strings.Replace(specJSON("bad-load", 1), "0.05", "1.5", 1)); code != http.StatusBadRequest {
		t.Errorf("load out of range: status %d", code)
	}

	// Unknown collector name.
	withMetrics := strings.Replace(specJSON("bad-metrics", 1),
		`"sim": {`, `"sim": {"metrics": "nope", `, 1)
	if code, ae := post(withMetrics); code != http.StatusBadRequest || ae.Error == "" {
		t.Errorf("unknown collector: status %d, %+v", code, ae)
	}

	// Negative simulator knob: refused at submit, by name, instead of
	// failing (or time-travelling in) every job.
	negative := strings.Replace(specJSON("bad-sim", 1), `"sim": {`, `"sim": {"credit_delay": -5, `, 1)
	if code, ae := post(negative); code != http.StatusBadRequest || !strings.Contains(ae.Error, "credit_delay") {
		t.Errorf("negative credit_delay: status %d, %+v", code, ae)
	}

	// More VCs than the engine's int8 VC fields can name: same.
	manyVCs := strings.Replace(specJSON("bad-vcs", 1), `"sim": {`, `"sim": {"num_vcs": 200, "buf_per_port": 200, `, 1)
	if code, ae := post(manyVCs); code != http.StatusBadRequest || ae.Kind != "bad_spec" || !strings.Contains(ae.Error, "num_vcs 200") {
		t.Errorf("200 VCs: status %d, %+v", code, ae)
	}

	// Fewer flits than VCs, and more flits per VC than the int16 credit
	// counters hold: refused at submit by sim.New's own buffer rule.
	for _, sp := range []string{`"num_vcs": 8, "buf_per_port": 4, `, `"num_vcs": 1, "buf_per_port": 100000, `} {
		buffers := strings.Replace(specJSON("bad-buffers", 1), `"sim": {`, `"sim": {`+sp, 1)
		if code, ae := post(buffers); code != http.StatusBadRequest || ae.Kind != "bad_spec" || !strings.Contains(ae.Error, "buf_per_port") {
			t.Errorf("%s: status %d, %+v", sp, code, ae)
		}
	}

	// A speedup past the allocator's int32 staging comparison: refused at
	// submit, not run with a wrapped value and cached.
	fast := strings.Replace(specJSON("bad-speedup", 1), `"sim": {`, `"sim": {"speedup": 2147483648, `, 1)
	if code, ae := post(fast); code != http.StatusBadRequest || ae.Kind != "bad_spec" || !strings.Contains(ae.Error, "speedup") {
		t.Errorf("speedup 2^31: status %d, %+v", code, ae)
	}

	// A window past the engine's int32 cycle stamps: refused at submit by
	// the same bound sim.New applies, not queued as jobs that can only fail.
	// 50 + 100 + 2146434918 + the default delays 2+1+2 is one cycle over.
	longDrain := strings.Replace(specJSON("bad-window", 1), `"drain": 500`, `"drain": 2146434918`, 1)
	if code, ae := post(longDrain); code != http.StatusBadRequest || ae.Kind != "bad_spec" || !strings.Contains(ae.Error, "cycle-stamp range") {
		t.Errorf("drain past the cycle range: status %d, %+v", code, ae)
	}

	// Nothing leaked into the sweep list.
	resp, err := http.Get(ts.URL + "/api/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []Status `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 0 {
		t.Errorf("invalid submissions created sweeps: %+v", list.Sweeps)
	}
}

// TestSubmitTrailingData: a body holding a second spec, or anything but
// whitespace after the first, is a 400; it used to queue the first spec
// alone. A trailing newline is fine.
func TestSubmitTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := specJSON("trailing", 1)
	for _, body := range []string{spec + spec, spec + " }"} {
		if code, ae := postForError(t, ts.URL+"/api/v1/sweeps", body); code != http.StatusBadRequest || ae.Kind != "bad_spec" ||
			!strings.Contains(ae.Error, "data after the top-level value") {
			t.Errorf("%q: status %d, %+v", body, code, ae)
		}
	}
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(spec+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("spec with a trailing newline: status %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
}

// TestSubmitJobLimit: a grid that fits the body limit but not the job
// limit is refused before it is expanded (60 000 x 60 000 points would
// not fit in memory, let alone in a second), while the example spec the
// docs and CI submit is nowhere near the limit.
func TestSubmitJobLimit(t *testing.T) {
	srv := New(Config{Workers: -1}) // never started: submissions only queue
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var loads, seeds strings.Builder
	for i := 0; i < 60000; i++ {
		loads.WriteString(",0.5")
		seeds.WriteString("," + strconv.Itoa(i+2))
	}
	huge := strings.Replace(specJSON("huge", 1), `"loads": [0.05]`, `"loads": [0.05`+loads.String()+`]`, 1)
	huge = strings.Replace(huge, `"seeds": [1]`, `"seeds": [1`+seeds.String()+`]`, 1)
	if len(huge) >= maxSpecBytes {
		t.Fatalf("oversized grid does not fit the body limit: %d bytes", len(huge))
	}
	start := time.Now()
	if code, ae := postForError(t, ts.URL+"/api/v1/sweeps", huge); code != http.StatusBadRequest || ae.Kind != "too_many_jobs" {
		t.Errorf("oversized grid: status %d kind %q (%s)", code, ae.Kind, ae.Error)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("oversized grid took %s to refuse", d)
	}
	if n := pendingJobs(srv); n != 0 {
		t.Errorf("oversized grid queued %d jobs", n)
	}

	quick, err := os.ReadFile("../../examples/sweeps/quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if st := postSpec(t, ts, string(quick)); st.Progress.Total != 24 {
		t.Errorf("examples/sweeps/quick.json queued %d jobs, want 24", st.Progress.Total)
	}
}

// TestSweepLifecycle: submit, run to completion, fetch results in all
// three formats, fetch a single cache entry by key, list the index.
func TestSweepLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	srv, ts := newTestServer(t, Config{Workers: 2})
	srv.Start()

	st := postSpec(t, ts, specJSON("lifecycle", 3))
	if st.Jobs != 3 {
		t.Fatalf("expanded to %d jobs, want 3", st.Jobs)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if p := final.Progress; p.Done != 3 || p.Failed != 0 || p.Executed != 3 {
		t.Fatalf("final progress %+v", p)
	}
	if final.Finished == nil {
		t.Error("done sweep has no finished timestamp")
	}

	// JSON artifact: sfsweep's results.json shape.
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	art, err := export.ReadSweepJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Results) != 3 || art.Stats.Executed != 3 || art.Spec == nil {
		t.Fatalf("artifact: %d results, stats %+v, spec %v", len(art.Results), art.Stats, art.Spec)
	}
	for _, r := range art.Results {
		if r.Err != "" || r.Key == "" || r.Result.Delivered == 0 {
			t.Errorf("bad result %+v", r)
		}
	}

	// CSV: byte-identical to the export writer over the same results.
	resp, err = http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var want bytes.Buffer
	if err := export.WriteSweepCSV(&want, art.Results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Errorf("served CSV differs from export.WriteSweepCSV:\n%s\nvs\n%s", served, want.Bytes())
	}

	// JSONL: one parseable line per result.
	resp, err = http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/results?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r sweep.JobResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Errorf("jsonl line %d: %v", lines, err)
		}
		lines++
	}
	resp.Body.Close()
	if lines != 3 {
		t.Errorf("jsonl lines = %d, want 3", lines)
	}

	// Single entry by key: the cross-client dedup surface.
	key := art.Results[0].Key
	resp, err = http.Get(ts.URL + "/api/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var entry sweep.Entry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if entry.Result.Delivered != art.Results[0].Result.Delivered {
		t.Errorf("cache entry result differs from sweep result")
	}

	// Key shaped wrong: 400, never touches the filesystem.
	resp, err = http.Get(ts.URL + "/api/v1/results/..%2Fescape")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad key: status %d, want 400", resp.StatusCode)
	}

	// Index lists every key the sweep produced.
	resp, err = http.Get(ts.URL + "/api/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Keys  []string `json:"keys"`
		Count int      `json:"count"`
		Error string   `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Error != "" || idx.Count != 3 || len(idx.Keys) != 3 {
		t.Errorf("index: %+v", idx)
	}
}

// TestEntryServedAsStored pins the bytes of GET /api/v1/results/{key}.
// For every entry of a small grid (two algorithms, three collector
// selections) the body is both the indented encoding of the decoded
// entry and the stored file, each plus a trailing newline; HEAD answers
// 200 with no body. Reads then follow the files: an entry renamed over
// is served as its new file, a deleted one is a 404 not_found.
func TestEntryServedAsStored(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 2, Store: cache})
	srv.Start()
	for i, metrics := range []string{"", "latency", "latency,channels,fairness"} {
		spec := fmt.Sprintf(`{
			"name": "stored-%d",
			"topologies": [{"kind": "SF", "q": 5}],
			"algos": ["min", "ugal-l"],
			"patterns": ["uniform"],
			"loads": [0.3],
			"seeds": [1],
			"sim": {"warmup": 50, "measure": 100, "drain": 500, "metrics": %q}
		}`, i, metrics)
		waitState(t, ts, postSpec(t, ts, spec).ID, StateDone)
	}

	var keys []string
	for key, err := range cache.Keys() {
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		stored, ok := cache.Get(key)
		if !ok {
			t.Fatalf("%s: Get missed a stored entry", key)
		}
		encoded, err := json.MarshalIndent(stored, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(cache.Dir(), key[:2], key+".json"))
		if err != nil {
			t.Fatal(err)
		}

		resp, err := http.Get(ts.URL + "/api/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, read error %v", key, resp.StatusCode, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: content-type %q", key, ct)
		}
		if !bytes.Equal(body, append(encoded, '\n')) {
			t.Errorf("GET %s: body is not the re-encoded entry:\n%s\nvs\n%s", key, body, encoded)
		}
		if !bytes.Equal(body, append(file, '\n')) {
			t.Errorf("GET %s: body is not the stored file plus a newline", key)
		}

		resp, err = http.Head(ts.URL + "/api/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != 0 {
			t.Errorf("HEAD %s: status %d, %d body bytes, read error %v", key, resp.StatusCode, len(body), err)
		}
	}
	if len(keys) != 6 {
		t.Fatalf("grid stored %d entries, want 6", len(keys))
	}

	// Reads follow a change made behind the server's back, after every
	// entry was read above: an entry renamed over by a new file is served
	// as the new file, and a deleted one is a 404 not_found.
	path := func(key string) string { return filepath.Join(cache.Dir(), key[:2], key+".json") }
	e, _ := cache.Get(keys[0])
	e.Elapsed++
	doc, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "entry.json")
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path(keys[0])); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path(keys[1])); err != nil {
		t.Fatal(err)
	}
	read := func(key string) (int, []byte) {
		resp, err := http.Get(ts.URL + "/api/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := read(keys[0]); code != http.StatusOK || !bytes.Equal(body, append(doc, '\n')) {
		t.Errorf("GET %s: status %d, renamed-over entry not served as its new file:\n%s", keys[0], code, body)
	}
	var ae apiError
	if code, body := read(keys[1]); code != http.StatusNotFound || json.Unmarshal(body, &ae) != nil || ae.Kind != "not_found" {
		t.Errorf("GET %s: deleted entry answered %d %s, want 404 not_found", keys[1], code, body)
	}
}

// TestEntryNotAsStored: a stored file that is not shaped the way Put
// writes it -- torn, or compact JSON planted by hand -- is a structured
// 404 on GET and stays on disk (serving it deletes nothing). The compact
// one is still a hit for Cache.Get.
func TestEntryNotAsStored(t *testing.T) {
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: -1, Store: cache})
	job := sweep.Job{Topo: sweep.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.2, Seed: 1}
	key := job.Key()
	if err := cache.Put(key, sweep.Entry{Job: job}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cache.Dir(), key[:2], key+".json")
	stored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, stored); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"truncated", stored[:len(stored)-10]}, {"compact", compact.Bytes()}} {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/api/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		err = json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || ae.Kind != "not_found" {
			t.Errorf("%s entry: status %d kind %q (%v), want 404 not_found", c.name, resp.StatusCode, ae.Kind, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("%s entry: GET deleted the file: %v", c.name, err)
		}
	}
	// The compact file, planted last, is still a hit for Cache.Get.
	if _, ok := cache.Get(key); !ok {
		t.Error("Cache.Get missed the compact entry")
	}
}

// TestRouteTimers: every request lands in the timer of the route it
// matched, named by the mux pattern, and a request no route matches in
// the unmatched one. A debug page counts under /debug/, although the
// debug tree routes it through a mux of its own.
func TestRouteTimers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1, Debug: true})
	routes := []string{"GET /api/v1/results/{key}", "GET /healthz", "unmatched", "/debug/"}
	count := func() []int64 {
		snap := obs.Snapshot()
		n := make([]int64, len(routes))
		for i, r := range routes {
			st, _ := snap["sweepd.route "+r].(obs.TimerStats)
			n[i] = st.Count
		}
		return n
	}
	before := count()
	for _, path := range []string{
		"/api/v1/results/" + strings.Repeat("ab", 32),
		"/api/v1/results/" + strings.Repeat("cd", 32),
		"/healthz",
		"/no/such/route",
		"/debug/vars",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	after := count()
	for i, want := range []int64{2, 1, 1, 1} {
		if got := after[i] - before[i]; got != want {
			t.Errorf("sweepd.route %s counted %d requests, want %d", routes[i], got, want)
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id   int
	kind string
	data string
}

// putFailStore is a result store on a volume that went read-only: lookups
// work, every write fails.
type putFailStore struct{ sweep.Store }

func (putFailStore) Put(string, sweep.Entry) error {
	return errors.New("read-only file system")
}

// TestResultsStatsStoreErrors: the results artifact's stats are the ones
// sfsweep would print for the same run, store-write failures included.
func TestResultsStatsStoreErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	c, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 2, Store: putFailStore{c}})
	srv.Start()

	st := postSpec(t, ts, specJSON("readonly", 2))
	waitState(t, ts, st.ID, StateDone)
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	art, err := export.ReadSweepJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if art.Stats.Executed != 2 || art.Stats.PutErrors != 2 ||
		!strings.Contains(art.Stats.FirstStoreErr, "read-only file system") {
		t.Fatalf("stats %+v: want 2 executed, 2 put errors and the first store error", art.Stats)
	}
}

// readSSE parses a text/event-stream body until it closes.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.kind != "" {
				evs = append(evs, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return evs
}

// TestSSEEventOrdering: the event stream replays from the start, ids
// increase strictly, every job contributes a result event followed by a
// progress event, and the stream ends with "done".
func TestSSEEventOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	srv, ts := newTestServer(t, Config{Workers: 2})
	srv.Start()
	st := postSpec(t, ts, specJSON("sse", 4))

	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	evs := readSSE(t, resp.Body) // returns when the hub closes at "done"

	if len(evs) == 0 {
		t.Fatal("no events")
	}
	results, progress := 0, 0
	for i, ev := range evs {
		if ev.id != i+1 {
			t.Fatalf("event %d has id %d: ids must be the gapless 1-based sequence", i, ev.id)
		}
		switch ev.kind {
		case "result":
			results++
			var re resultEvent
			if err := json.Unmarshal([]byte(ev.data), &re); err != nil {
				t.Fatalf("result event payload: %v", err)
			}
			if re.Result.Err != "" {
				t.Errorf("job %d failed: %s", re.Index, re.Result.Err)
			}
			// Each result is immediately followed by a progress snapshot.
			if i+1 >= len(evs) || evs[i+1].kind != "progress" {
				t.Errorf("event %d (result) not followed by progress", i)
			}
		case "progress":
			progress++
		}
	}
	if results != 4 || progress != 4 {
		t.Errorf("saw %d result and %d progress events, want 4 and 4", results, progress)
	}
	if last := evs[len(evs)-1]; last.kind != "done" {
		t.Errorf("last event is %q, want done", last.kind)
	}
	var final Status
	if err := json.Unmarshal([]byte(evs[len(evs)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Errorf("done event carries state %q", final.State)
	}

	// A subscriber arriving after completion gets the identical ordered
	// log as pure replay.
	resp2, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, resp2.Body)
	if len(replay) != len(evs) {
		t.Fatalf("replay has %d events, live had %d", len(replay), len(evs))
	}
	for i := range evs {
		if replay[i] != evs[i] {
			t.Errorf("replay event %d differs: %+v vs %+v", i, replay[i], evs[i])
		}
	}
}

// TestCacheSharing: concurrent submissions of the same spec share one
// cache; once the first completes, a resubmission is served entirely
// from cache, executing nothing.
func TestCacheSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	srv, ts := newTestServer(t, Config{Workers: 2})
	srv.Start()

	// Concurrent POSTs of the same spec: both must complete cleanly (the
	// race detector guards the claim paths).
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = postSpec(t, ts, specJSON("shared", 3)).ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}

	// Sequential resubmission: everything is a cache hit now.
	st := postSpec(t, ts, specJSON("shared", 3))
	final := waitState(t, ts, st.ID, StateDone)
	if p := final.Progress; p.Cached != 3 || p.Executed != 0 {
		t.Errorf("resubmission progress %+v, want 3 cached / 0 executed", p)
	}

	// Total work across the three sweeps: at most 2x the grid (the two
	// concurrent sweeps can each execute a point before the other's
	// store lands), never 3x.
	total := 0
	for _, id := range append(ids, st.ID) {
		total += getStatus(t, ts, id).Progress.Executed
	}
	if total > 6 {
		t.Errorf("%d jobs executed across 3 identical sweeps of 3 points", total)
	}
}

// TestFairShareAPI: with one worker, a small sweep submitted after a big
// one still finishes first -- the service-level starvation guarantee.
func TestFairShareAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	srv, ts := newTestServer(t, Config{Workers: 1})
	// Submit BEFORE Start so claim order is exactly round-robin from job
	// zero: big first, then small.
	big := postSpec(t, ts, specJSON("big", 6))
	small := postSpec(t, ts, specJSON("small-sweep", 2))
	srv.Start()

	bigFinal := waitState(t, ts, big.ID, StateDone)
	smallFinal := waitState(t, ts, small.ID, StateDone)
	if !smallFinal.Finished.Before(*bigFinal.Finished) {
		t.Errorf("small sweep finished at %v, after big at %v: starved",
			smallFinal.Finished, bigFinal.Finished)
	}
}

// TestDrainResume: drain mid-sweep, verify the sweep is marked
// interrupted with its finished points cached, then complete it on a
// fresh server over the same cache without re-executing them.
func TestDrainResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Store: cache})
	srv.Start()
	// Long measure window: each job takes long enough that the drain
	// issued right after the first result reliably lands mid-sweep.
	drainSpec := `{
		"name": "drain",
		"topologies": [{"kind": "SF", "q": 5}],
		"algos": ["min"],
		"patterns": ["uniform"],
		"loads": [0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
		"seeds": [1],
		"sim": {"warmup": 50, "measure": 5000, "drain": 500}
	}`
	st := postSpec(t, ts, drainSpec)

	// Wait for the first result event, then drain: deterministic "mid-sweep".
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	seenResult := false
	for sc.Scan() && !seenResult {
		seenResult = strings.HasPrefix(sc.Text(), "event: result")
	}
	if !seenResult {
		t.Fatal("no result event before stream end")
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := getStatus(t, ts, st.ID)
	if final.State != StateInterrupted {
		t.Fatalf("state after drain = %q, want interrupted", final.State)
	}
	done := final.Progress.Done
	if done < 1 || done >= 6 {
		t.Fatalf("drain finished %d jobs, want mid-sweep (1..5)", done)
	}
	if cached := storetest.Count(t, cache); cached != done {
		t.Errorf("cache has %d entries, %d jobs finished: drain lost committed work", cached, done)
	}

	// Submissions during/after drain: 503.
	r503, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(specJSON("late", 1)))
	if err != nil {
		t.Fatal(err)
	}
	r503.Body.Close()
	if r503.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while drained: status %d, want 503", r503.StatusCode)
	}

	// "Restart": a new server over the same cache dir completes the sweep
	// with the drained points served from cache, not re-executed.
	srv2, ts2 := newTestServer(t, Config{Workers: 1, Store: cache})
	srv2.Start()
	st2 := postSpec(t, ts2, drainSpec)
	final2 := waitState(t, ts2, st2.ID, StateDone)
	if p := final2.Progress; p.Cached != done || p.Executed != 6-done || p.Failed != 0 {
		t.Errorf("resumed progress %+v, want %d cached / %d executed", p, done, 6-done)
	}
}

// TestCancel: cancelling removes unclaimed jobs from the rotation and
// the sweep reports a terminal cancelled state with partial results.
func TestCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Never started: jobs stay queued, cancellation is fully deterministic.
	st := postSpec(t, ts, specJSON("cancel", 3))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Errorf("state %q, want cancelled", got.State)
	}
	// Its event stream is closed: a subscriber sees the replay and EOF.
	evResp, err := http.Get(ts.URL + "/api/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	evs := readSSE(t, evResp.Body)
	if len(evs) == 0 || evs[len(evs)-1].kind != "state" {
		t.Errorf("cancelled stream events: %+v", evs)
	}
}

// TestSSESubscriberCap: a sweep streams events to at most maxSubscribers
// clients at once. The next is refused with a structured 503 before any
// header is written, and a subscriber that goes away frees its slot. At the
// hub, cancel is idempotent: calling it twice frees one slot, not two.
func TestSSESubscriberCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Never started: the sweep stays queued and its hub open.
	st := postSpec(t, ts, specJSON("subs", 1))
	url := ts.URL + "/api/v1/sweeps/" + st.ID + "/events"
	streams := make([]*http.Response, 0, maxSubscribers)
	defer func() {
		for _, resp := range streams {
			resp.Body.Close()
		}
	}()
	for range maxSubscribers {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subscriber %d: status %d, want 200", len(streams), resp.StatusCode)
		}
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	err = json.NewDecoder(resp.Body).Decode(&ae)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || err != nil || ae.Kind != "too_many_subscribers" {
		t.Fatalf("subscriber %d: status %d kind %q (%v), want 503 too_many_subscribers", maxSubscribers+1, resp.StatusCode, ae.Kind, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct == "text/event-stream" {
		t.Errorf("refused subscriber got content-type %q", ct)
	}

	// Closing one stream ends its handler, whose cancel frees the slot.
	streams[0].Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			streams[0] = resp
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("no slot freed after a subscriber left: status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	h := newHub()
	cancels := make([]func(), maxSubscribers)
	for i := range cancels {
		_, _, cancel, ok := h.subscribe()
		if !ok {
			t.Fatalf("hub refused subscriber %d of %d", i+1, maxSubscribers)
		}
		cancels[i] = cancel
	}
	if _, _, _, ok := h.subscribe(); ok {
		t.Fatalf("hub accepted subscriber %d", maxSubscribers+1)
	}
	cancels[0]()
	cancels[0]()
	if _, _, _, ok := h.subscribe(); !ok {
		t.Fatal("hub refused a subscriber after one cancel")
	}
	if _, _, _, ok := h.subscribe(); ok {
		t.Fatal("a repeated cancel freed a second slot")
	}
	h.close()
}

// TestEvictTerminalSweeps: the server keeps the newest terminal sweeps
// whose jobs total at most the limit and drops the older ones, whose ids
// then answer 404 like unknown ones. A queued or running sweep is never
// dropped, whatever the limit.
func TestEvictTerminalSweeps(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	// Never started: no job runs unless a lease claims it.
	var ids []string
	for i := range 6 {
		ids = append(ids, postSpec(t, ts, specJSON("evict-"+strconv.Itoa(i), 2)).ID)
	}
	for _, id := range ids[:4] {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sweeps/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// A lease claims a job of sweep 4, the first left in the rotation,
	// so it runs; sweep 5 stays queued.
	if _, ok, err := srv.leases.lease("t", time.Minute); !ok || err != nil {
		t.Fatalf("lease: ok %v, err %v", ok, err)
	}
	if st4, st5 := getStatus(t, ts, ids[4]), getStatus(t, ts, ids[5]); st4.State != StateRunning || st5.State != StateQueued {
		t.Fatalf("sweeps 4 and 5 are %s and %s, want running and queued", st4.State, st5.State)
	}

	evict := func(limit int, want ...string) {
		t.Helper()
		srv.mu.Lock()
		srv.evictLocked(limit)
		held := 0
		for _, r := range srv.order {
			if r.terminated() {
				held += len(r.batch.Jobs)
			}
		}
		srv.mu.Unlock()
		if held > limit {
			t.Errorf("limit %d: terminal sweeps hold %d jobs", limit, held)
		}
		for i, id := range ids {
			resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			wantCode := http.StatusNotFound
			if slices.Contains(want, id) {
				wantCode = http.StatusOK
			}
			if resp.StatusCode != wantCode {
				t.Errorf("limit %d: GET sweep %d: status %d, want %d", limit, i, resp.StatusCode, wantCode)
			}
		}
	}
	// Four cancelled 2-job sweeps hold 8 jobs: a limit of 5 keeps the
	// newest two, and 0 keeps only the queued and running ones.
	evict(5, ids[2], ids[3], ids[4], ids[5])
	evict(0, ids[4], ids[5])
}

// TestNotFound: unknown ids and keys are structured 404s.
func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{
		"/api/v1/sweeps/sw-999",
		"/api/v1/sweeps/sw-999/events",
		"/api/v1/sweeps/sw-999/results",
		"/api/v1/results/" + strings.Repeat("ab", 32),
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		err = json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || ae.Error == "" {
			t.Errorf("GET %s: status %d, body err %v", path, resp.StatusCode, err)
		}
	}
}
