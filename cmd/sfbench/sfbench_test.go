package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/sweep"
	"slimfly/internal/sweep/storetest"
)

// Reduced sizes: the same code paths as the declared workloads, small
// enough that all five run traced and un-traced within seconds.
var (
	testEngineMin = engineSize{
		q: 5, algo: "min", pattern: "uniform", load: 0.5, backend: route.PolicyTables,
		warmup: 20, measure: 40, drain: 500,
	}
	testEngineUgal = engineSize{
		q: 5, algo: "ugal-l", pattern: "worstcase", load: 0.3, backend: route.PolicyComputed,
		workers: 1, collectors: allCollectors, warmup: 20, measure: 40, drain: 500,
	}
	testLadder = ladderSize{
		orders: []int{5, 7}, p: 2, rosterN: []int{200}, layeringQ: []int{5},
		parityQ: 5, parityPairs: 2000, lookupPairs: 5000,
	}
	testGrid = gridSize{
		targetN: 150, loads: []float64{0.2, 0.8}, warmup: 60, measure: 150, drain: 1500,
		collectors: "latency", workers: 2, warmChunk: 2, warmRounds: 1, readChunk: 30,
	}
	testWorkloads = map[string]func(*run){
		"engine_min_uniform":    func(r *run) { engineWorkload(r, testEngineMin) },
		"engine_ugal_worstcase": func(r *run) { engineWorkload(r, testEngineUgal) },
		"build_ladder":          func(r *run) { ladderWorkload(r, testLadder) },
		"fig6_pool":             func(r *run) { poolWorkload(r, testGrid) },
		"service_loopback":      func(r *run) { serviceWorkload(r, testGrid) },
	}
)

func testDecl(t *testing.T) *decl {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := loadDecl(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runReduced(t *testing.T, d *decl, name string, seed uint64, traced bool) (rep *report, printed, tracePath string) {
	t.Helper()
	r := newRun(d, name, seed, 150*time.Millisecond, traced)
	r.tmpRoot = t.TempDir()
	rep = r.execute(testWorkloads[name])
	var out bytes.Buffer
	rep.print(&out)
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("%s (traced=%v): %d failed operations:\n%s", name, traced, rep.Failed, strings.Join(rep.failures, "\n"))
	}
	return rep, out.String(), r.tracePath
}

// TestEveryDeclaredMetricIsPrintedOnce runs all five workloads at reduced
// sizes, both ways: every metric BENCHMARK.json declares is printed
// exactly once per run, with a unit and a well-formed name; every
// end-to-end metric is measured (non-zero) on every workload, every
// per-layer metric by at least one; the result line has exactly the
// contract's keys.
func TestEveryDeclaredMetricIsPrintedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	d := testDecl(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	measured := make(map[string]bool)
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil || testWorkloads[w.Name] == nil {
			t.Fatalf("workload %q is declared but not implemented", w.Name)
		}
		for _, traced := range []bool{false, true} {
			rep, out, tracePath := runReduced(t, d, w.Name, 7, traced)
			list := d.EndToEnd
			if traced {
				list = d.PerLayer
			}
			printed := make(map[string]int)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			for _, line := range lines {
				if f := strings.Fields(line); len(f) >= 4 && f[0] == w.Name {
					printed[f[1]]++
					if m, ok := find(list, f[1]); !ok || f[3] != m.Unit {
						t.Errorf("%s: printed %q with unit %q; declared %+v", w.Name, f[1], f[3], m)
					}
				}
			}
			for _, m := range list {
				if printed[m.Name] != 1 {
					t.Errorf("%s (traced=%v): metric %q printed %d times", w.Name, traced, m.Name, printed[m.Name])
				}
				if !nameRE.MatchString(m.Name) || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
					t.Errorf("malformed declaration %+v", m)
				}
				v := rep.Metrics[m.Name].Value
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", w.Name, m.Name, v)
				}
				if v != 0 {
					measured[m.Name] = true
				} else if !traced {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, m.Name)
				}
			}
			if len(printed) != len(list) {
				t.Errorf("%s (traced=%v): %d metrics printed, %d declared", w.Name, traced, len(printed), len(list))
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
			}
			keys := make([]string, 0, len(line))
			for k := range line {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: result line has keys %v", w.Name, keys)
			}
			if traced {
				if err := validateTraceFile(tracePath); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
		}
	}
	// Counts that are 0 when all is well cannot show up as measured.
	zeroIsGood := []string{"sweep.jobs_failed", "sweepd.http_non2xx", "sim.allocs_per_cycle"}
	for _, m := range d.PerLayer {
		if !measured[m.Name] && !slices.Contains(zeroIsGood, m.Name) {
			t.Errorf("per-layer metric %q is declared but no workload measures it", m.Name)
		}
	}
	for _, name := range exactMetrics {
		if _, ok := find(d.PerLayer, name); !ok {
			t.Errorf("exact-count metric %q is not declared", name)
		}
	}
}

// TestSeedChangesInputsOnly: another seed gives other simulated counts,
// the same seed the same ones.
func TestSeedChangesInputsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	d := testDecl(t)
	injected := func(seed uint64) float64 {
		rep, _, _ := runReduced(t, d, "engine_min_uniform", seed, true)
		return rep.Metrics["sim.injected"].Value
	}
	a, b, c := injected(3), injected(3), injected(4)
	if a != b || a == c || a == 0 {
		t.Errorf("sim.injected at seeds 3, 3, 4 = %v, %v, %v", a, b, c)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	ms := time.Millisecond
	// root 0..100 with children a 10..30 and b 20..50 (overlapping: two
	// workers), c 60..70; a has a child 12..18; d is a second root.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},
		{Name: "c", Parent: 0, Start: 60 * ms, End: 70 * ms},
		{Name: "a1", Parent: 1, Start: 12 * ms, End: 18 * ms},
		{Name: "d", Parent: -1, Start: 100 * ms, End: 105 * ms},
	}
	want := []time.Duration{50 * ms, 14 * ms, 30 * ms, 10 * ms, 6 * ms, 5 * ms}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}

	// The same tree recorded through the tracer: parents are found by
	// shared id, unrelated ids stay roots, and the file validates.
	tr := newTracer()
	root := tr.start("job", "root")
	a := tr.start("job", "a")
	a1 := tr.start("job", "a1")
	other := tr.start("elsewhere", "x")
	a1.end()
	a.end()
	other.end()
	root.end()
	parents := []int{-1, 0, 1, -1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %d (%s) has parent %d, want %d", i, s.Name, s.Parent, parents[i])
		}
	}
	if tr.spans[3].Lane == tr.spans[0].Lane {
		t.Error("two roots open at once share a lane")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.writeChrome(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := validateTraceFile(path); err != nil {
		t.Error(err)
	}
	var nilTracer *tracer
	if d := nilTracer.start("x", "y").end(); d != 0 {
		t.Errorf("nil tracer measured %v", d)
	}
}

// TestWrongResultsFailOperations feeds the output checks results that
// break them.
func TestWrongResultsFailOperations(t *testing.T) {
	d := testDecl(t)
	r := newRun(d, "fig6_pool", 1, time.Second, false)
	checkDrained(r, "ok", sim.Result{Injected: 10, Delivered: 10})
	checkDrained(r, "cut off", sim.Result{Injected: 10, Delivered: 7, Saturated: true})
	if len(r.failures) != 0 {
		t.Fatalf("consistent results failed: %v", r.failures)
	}
	checkDrained(r, "lost packets", sim.Result{Injected: 10, Delivered: 9})
	if len(r.failures) != 1 {
		t.Fatalf("a drained run that lost a packet passed: %v", r.failures)
	}

	job := func(algo, pattern string, load, accepted, latency float64) sweep.JobResult {
		return sweep.JobResult{
			Job:    sweep.Job{Topo: sweep.TopoSpec{Kind: "SF", N: 100}, Algo: algo, Pattern: pattern, Load: load},
			Result: sim.Result{Accepted: accepted, AvgLatency: latency},
		}
	}
	good := []sweep.JobResult{
		job("min", "worstcase", 0.8, 0.1, 50), job("ugal-l", "worstcase", 0.8, 0.4, 30),
		job("min", "uniform", 0.2, 0.2, 9), job("val", "uniform", 0.2, 0.2, 14),
	}
	r = newRun(d, "fig6_pool", 1, time.Second, false)
	checkGrid(r, "good", good, false)
	if len(r.failures) != 0 {
		t.Fatalf("the paper's orderings failed: %v", r.failures)
	}
	bad := slices.Clone(good)
	bad[0].Result.Accepted = 0.5 // min out-accepting ugal-l under the adversary
	bad[2].Result.AvgLatency = 20
	bad[3].Err = "boom"
	checkGrid(r, "bad", bad, false)
	if len(r.failures) != 3 {
		t.Errorf("want 3 failed operations (two orderings, one job error), got %d: %v", len(r.failures), r.failures)
	}
	rep := r.execute(func(*run) {})
	if rep.Correct || rep.Failed < 3 {
		t.Errorf("report: correct=%v failed=%d", rep.Correct, rep.Failed)
	}

	// Undeclared and repeated metrics are failures too.
	r = newRun(d, "fig6_pool", 1, time.Second, false)
	r.set("unit_s", 1)
	r.set("unit_s", 2)
	r.set("no_such_metric", 1)
	if len(r.failures) != 2 {
		t.Errorf("want 2 failures for a repeated and an undeclared metric, got %v", r.failures)
	}
}

// TestPinnedStatistics: checkRef writes under -write-ref, passes on equal
// statistics, fails on different ones, and applies at refSeed only.
func TestPinnedStatistics(t *testing.T) {
	d := testDecl(t)
	dir := t.TempDir()
	mk := func(seed uint64, write bool) *run {
		r := newRun(d, "engine_min_uniform", seed, time.Second, false)
		r.refDir, r.writeRef = dir, write
		return r
	}
	r := mk(refSeed, true)
	r.checkRef(map[string]any{"injected": 5})
	r = mk(refSeed, false)
	r.checkRef(map[string]any{"injected": 5})
	if len(r.failures) != 0 {
		t.Errorf("equal statistics failed: %v", r.failures)
	}
	r.checkRef(map[string]any{"injected": 6})
	if len(r.failures) != 1 {
		t.Errorf("changed statistics passed")
	}
	r = mk(refSeed+1, false)
	r.checkRef(map[string]any{"injected": 6})
	if r.attempted != 0 {
		t.Errorf("pinned statistics were applied at another seed")
	}
}

func TestTimedStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Backend{Open: func(t *testing.T) (sweep.Store, storetest.Plant) {
		dir := t.TempDir()
		c, err := sweep.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		plant := func(t *testing.T, rel string, data []byte) {
			t.Helper()
			path := filepath.Join(dir, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return &timedStore{Store: c, tr: newTracer(), times: &storeTimes{}}, plant
	}})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) of these lists, computed with Python 3.
	for _, c := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 4}, 1, 2, 4},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "unit_s", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "work_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10}
	for _, c := range []struct {
		name     string
		m        metricDecl
		old, new []float64
		want     string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within bound", lower, steady, scale(steady, 1.08), "ok"},
		{"slower", lower, steady, scale(steady, 1.2), "REGRESSION"},
		{"faster", lower, steady, scale(steady, 0.7), "ok"},
		{"less throughput", higher, steady, scale(steady, 0.8), "REGRESSION"},
		{"more throughput", higher, steady, scale(steady, 1.3), "ok"},
		{"noisy and overlapping", lower, noisy, scale(noisy, 1.15), "unresolved"},
		{"noisy, every run better", lower, noisy, scale(noisy, 0.5), "ok"},
		{"noisy, every run worse", lower, noisy, scale(noisy, 2), "REGRESSION"},
		{"missing", lower, steady, nil, "missing"},
	} {
		if got, _ := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareFiles: two sets of one commit compare clean; a slowed,
// failing set with a changed count does not.
func TestCompareFiles(t *testing.T) {
	d := testDecl(t)
	mkSet := func(scale float64, cycles float64, failed int) string {
		var set resultSet
		for _, w := range d.Workloads {
			for i, jitter := range []float64{1, 1.01, 0.99} {
				rep := report{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
				for _, m := range d.EndToEnd {
					v := 100 * jitter
					if m.Better == "lower" {
						v *= scale
					} else {
						v /= scale
					}
					rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				set.Runs = append(set.Runs, setRun{Workload: w.Name, Seed: uint64(i + 1), report: rep})
			}
			rep := report{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"sim.total_cycles": {Value: cycles, Unit: "count"}}}
			set.Runs = append(set.Runs, setRun{Workload: w.Name, Seed: 1, Trace: true, report: rep})
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mkSet(1, 821, 0)
	var out bytes.Buffer
	if code := compareFiles(&out, d, base, mkSet(1.02, 821, 0)); code != 0 {
		t.Errorf("two sets of one commit: exit %d\n%s", code, out.String())
	}
	rows := strings.Count(out.String(), " ok (n=3/3)")
	if want := len(d.Workloads) * len(d.EndToEnd); rows != want {
		t.Errorf("%d ok rows, want one per workload x metric = %d\n%s", rows, want, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, d, base, mkSet(1.5, 900, 2)); code != 1 {
		t.Errorf("slowed set: exit %d", code)
	}
	for _, want := range []string{"REGRESSION", "failed_ops", "exact count changed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestBoolValueArgs(t *testing.T) {
	got := boolValueArgs([]string{"--workload", "w", "--seed", "3", "--seconds", "10", "--trace", "1"}, "trace")
	want := []string{"--workload", "w", "--seed", "3", "--seconds", "10", "--trace=1"}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := boolValueArgs([]string{"-trace", "-runs", "2"}, "trace"); !slices.Equal(got, []string{"-trace", "-runs", "2"}) {
		t.Errorf("a bare -trace was rewritten: %v", got)
	}
}
