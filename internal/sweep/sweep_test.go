package sweep

import (
	"context"
	"encoding/json"
	"iter"
	"sync"
	"sync/atomic"
	"testing"

	"slimfly/internal/obs"
)

// e2eSpec is a 24-point sweep on tiny networks: 1 topology x 2 patterns x
// 2 algorithms x 3 loads x 2 seeds, with short simulation windows.
func e2eSpec() *Spec {
	return &Spec{
		Name:     "e2e",
		Topos:    []TopoSpec{{Kind: "SF", Q: 5}},
		Algos:    []string{"min", "val"},
		Patterns: []string{"uniform", "shift"},
		Loads:    []float64{0.1, 0.2, 0.3},
		Seeds:    []uint64{1, 2},
		Sim:      SimParams{Warmup: 50, Measure: 100, Drain: 500},
	}
}

// runSpec expands spec and runs its jobs through a fresh Env, so a fully
// cached sweep builds no topologies and executes no simulator cycles.
func runSpec(ctx context.Context, spec *Spec, opts Options) ([]JobResult, Stats, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, Stats{}, err
	}
	return RunJobs(ctx, jobs, NewEnv(), opts)
}

// TestSweepEndToEnd drives the acceptance scenario: a >= 24-job sweep runs
// in parallel, results are deterministic given fixed seeds, and a second
// invocation of the same spec against the same cache completes with 100%
// cache hits and zero simulator executions.
func TestSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	cacheDir := t.TempDir()
	cache, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := e2eSpec()

	run1, st1, err := runSpec(context.Background(), spec, Options{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Total < 24 {
		t.Fatalf("sweep has %d jobs, want >= 24", st1.Total)
	}
	if st1.Executed != st1.Total || st1.Cached != 0 || st1.Failed != 0 {
		t.Fatalf("first run stats = %+v, want all executed", st1)
	}

	// Second invocation: same spec, same cache, fresh Env. Every point is
	// served from the cache and nothing is simulated.
	run2, st2, err := runSpec(context.Background(), spec, Options{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != st2.Total || st2.Executed != 0 || st2.Failed != 0 {
		t.Fatalf("second run stats = %+v, want all cached", st2)
	}
	for i := range run1 {
		if run1[i].Result != run2[i].Result {
			t.Errorf("job %d (%s): cached result differs from computed", i, run1[i].Job.Label())
		}
		if !run2[i].Cached {
			t.Errorf("job %d not marked cached", i)
		}
	}

	// Determinism: an uncached rerun reproduces the results bit-for-bit.
	run3, _, err := runSpec(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range run1 {
		if run1[i].Result != run3[i].Result {
			t.Errorf("job %d (%s): rerun result differs", i, run1[i].Job.Label())
		}
	}
}

// TestSweepResume kills a sweep midway (context cancellation after a few
// completions) and verifies the rerun serves the finished jobs from the
// cache instead of recomputing them.
func TestSweepResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := e2eSpec()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int32
	_, st1, runErr := runSpec(ctx, spec, Options{
		Store:   cache,
		Workers: 2,
		OnDone: func(int, JobResult) {
			if atomic.AddInt32(&done, 1) == 5 {
				cancel()
			}
		},
	})
	if runErr == nil {
		t.Skip("sweep finished before cancellation took effect")
	}
	if st1.Skipped == 0 {
		t.Skip("cancellation landed after the last job")
	}
	if st1.Executed == 0 {
		t.Fatal("nothing executed before cancellation")
	}

	_, st2, err := runSpec(context.Background(), spec, Options{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached < st1.Executed {
		t.Errorf("resume recomputed finished work: first run executed %d, rerun cached only %d",
			st1.Executed, st2.Cached)
	}
	if st2.Executed != st2.Total-st1.Executed {
		t.Errorf("resume executed %d, want %d (total %d - %d already done)",
			st2.Executed, st2.Total-st1.Executed, st2.Total, st1.Executed)
	}
	if st2.Cached+st2.Executed != st2.Total || st2.Failed != 0 {
		t.Errorf("resume stats inconsistent: %+v", st2)
	}
}

// TestSweepFailedJob: an unbuildable topology fails its jobs without
// taking down the sweep, and failures are never cached.
func TestSweepFailedJob(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name:  "bad",
		Topos: []TopoSpec{{Kind: "SF", Q: 6}}, // 6 is not a valid MMS order
		Algos: []string{"min"},
		Loads: []float64{0.1, 0.2},
		Sim:   SimParams{Warmup: 10, Measure: 20, Drain: 100},
	}
	results, st, err := runSpec(context.Background(), spec, Options{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 2 || st.Executed != 0 {
		t.Fatalf("stats = %+v, want 2 failed", st)
	}
	for _, r := range results {
		if r.Err == "" {
			t.Errorf("failed job carries no error: %+v", r)
		}
	}
	if n := storedCount(t, cache); n != 0 {
		t.Errorf("failures were cached: %d entries", n)
	}
}

// TestRunTasksPositional: results line up with tasks regardless of which
// worker ran them (many tasks, few workers).
func TestRunTasksPositional(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	env := NewEnv()
	spec := e2eSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := RunJobs(context.Background(), jobs, env, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != len(jobs) {
		t.Fatalf("stats = %+v", st)
	}
	for i, r := range results {
		if r.Job != jobs[i] {
			t.Errorf("result %d holds job %s, want %s", i, r.Job.Label(), jobs[i].Label())
		}
		if r.Key != jobs[i].Key() {
			t.Errorf("result %d key mismatch", i)
		}
	}
}

// hitStore serves every key as a hit: a warm pass with no store cost.
type hitStore struct{}

func (hitStore) Get(string) (Entry, bool)       { return Entry{}, true }
func (hitStore) Raw(string) ([]byte, bool)      { return nil, false }
func (hitStore) Put(string, Entry) error        { return nil }
func (hitStore) Keys() iter.Seq2[string, error] { return func(func(string, error) bool) {} }

// TestWarmPassKeyEncodes pins what Spec.Key's memo saves the claim loop:
// the first pass over a grid encodes each job's key once
// (scenario.key_encodes), and a repeated pass encodes none. The grid's 24
// specs, at seeds no other test uses, fall into 24 distinct memo slots;
// two sharing one would each be encoded again on every pass.
func TestWarmPassKeyEncodes(t *testing.T) {
	encodes := obs.NewCounter("scenario.key_encodes")
	spec := e2eSpec()
	spec.Seeds = []uint64{9001, 9002}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	for pass, want := range []int64{int64(len(jobs)), 0, 0} {
		before := encodes.Value()
		_, st, err := RunJobs(context.Background(), jobs, env, Options{Workers: 2, Store: hitStore{}})
		if err != nil || st.Cached != len(jobs) {
			t.Fatalf("pass %d: stats %+v, err %v; want all %d cached", pass, st, err, len(jobs))
		}
		if got := encodes.Value() - before; got != want {
			t.Errorf("pass %d over %d jobs encoded %d keys, want %d", pass, len(jobs), got, want)
		}
	}
}

// TestEnvMemoisation: concurrent Config calls for the same topology build
// it exactly once.
func TestEnvMemoisation(t *testing.T) {
	env := NewEnv()
	ts := TopoSpec{Kind: "SF", Q: 5}
	var wg sync.WaitGroup
	tops := make([]interface{}, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tp, _, err := env.Topo(ts)
			if err != nil {
				t.Errorf("Topo: %v", err)
				return
			}
			tops[i] = tp
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if tops[i] != tops[0] {
			t.Fatal("memoised topology rebuilt")
		}
	}
}

func TestProgress(t *testing.T) {
	p := NewProgress(10, 2)
	p.Finish(0, JobResult{Elapsed: 1.0})
	p.Finish(1, JobResult{Cached: true})
	p.Finish(2, JobResult{Err: "boom"})
	s := p.Snapshot()
	if s.Done != 3 || s.Executed != 1 || s.Cached != 1 || s.Failed != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.ETA <= 0 {
		t.Error("ETA not estimated with executed jobs pending")
	}
	if s.String() == "" {
		t.Error("empty progress line")
	}
}

// TestSweepMetricsPayload pins the collector flow through the pool and
// the cache: a spec requesting collectors yields a metrics summary on
// every executed job, the summary round-trips through the cache
// byte-identically on the second (fully cached) run, and a third run
// without a store recomputes it bit-identically.
func TestSweepMetricsPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name:  "metrics",
		Topos: []TopoSpec{{Kind: "SF", Q: 5}},
		Algos: []string{"min"},
		Loads: []float64{0.2, 0.4},
		Sim:   SimParams{Warmup: 50, Measure: 100, Drain: 500, Metrics: "latency,channels"},
	}
	sumJSON := func(r JobResult) string {
		t.Helper()
		if r.Err != "" {
			t.Fatalf("job %s failed: %s", r.Job.Label(), r.Err)
		}
		if r.Metrics == nil || r.Metrics.Latency == nil || r.Metrics.Channels == nil {
			t.Fatalf("job %s missing requested summary sections: %+v", r.Job.Label(), r.Metrics)
		}
		data, err := json.Marshal(r.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	run1, st1, err := runSpec(context.Background(), spec, Options{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Executed != st1.Total {
		t.Fatalf("first run stats = %+v", st1)
	}
	run2, st2, err := runSpec(context.Background(), spec, Options{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != st2.Total {
		t.Fatalf("second run stats = %+v, want all cached", st2)
	}
	fresh, _, err := runSpec(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range run1 {
		want := sumJSON(run1[i])
		if got := sumJSON(run2[i]); got != want {
			t.Errorf("job %d: cached summary differs from computed:\n got  %s\n want %s", i, got, want)
		}
		if got := sumJSON(fresh[i]); got != want {
			t.Errorf("job %d: recomputed summary diverged:\n got  %s\n want %s", i, got, want)
		}
	}

	// The selection is part of the job identity: the same grid without
	// collectors occupies different cache slots and carries no payload.
	plain := *spec
	plain.Sim.Metrics = ""
	run4, st4, err := runSpec(context.Background(), &plain, Options{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st4.Cached != 0 {
		t.Errorf("metric-less spec hit the metric-bearing cache entries: %+v", st4)
	}
	for i := range run4 {
		if run4[i].Metrics != nil {
			t.Errorf("job %d: summary present without a selection", i)
		}
		if run4[i].Result != run1[i].Result {
			t.Errorf("job %d: collectors changed Result", i)
		}
	}
}
