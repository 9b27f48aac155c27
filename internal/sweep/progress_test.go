package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// observeN finishes the next executed+cached jobs: executed ones carry
// elapsed seconds, cached ones are free.
func observeN(p *Progress, executed int, elapsed float64, cached int) {
	for i := 0; i < executed; i++ {
		p.Finish(p.Snapshot().Done, JobResult{Elapsed: elapsed})
	}
	for i := 0; i < cached; i++ {
		p.Finish(p.Snapshot().Done, JobResult{Cached: true})
	}
}

// TestProgressETATailClamp pins the tail fix: with fewer jobs remaining
// than pool workers, the divisor is the remaining count, not the full
// pool width -- the last wave takes one per-job time regardless of how
// many idle workers watch it.
func TestProgressETATailClamp(t *testing.T) {
	p := NewProgress(100, 8)
	observeN(p, 96, 1.0, 0) // 4 remaining < 8 workers
	s := p.Snapshot()
	// perJob 1s, execRatio 1, remaining 4, width min(8, 4) = 4 -> 1s.
	if s.ETA != time.Second {
		t.Errorf("tail ETA = %v, want 1s (old formula: 500ms)", s.ETA)
	}

	// Mid-sweep the full width still applies: 50 remaining across 8.
	p = NewProgress(100, 8)
	observeN(p, 50, 1.0, 0)
	if s := p.Snapshot(); s.ETA != time.Duration(50.0/8*float64(time.Second)) {
		t.Errorf("mid-sweep ETA = %v, want 6.25s", s.ETA)
	}
}

// TestProgressETAExecRatio pins the cached-jobs scaling: with half the
// finished jobs served from cache, only half the remaining count is
// forecast at full cost.
func TestProgressETAExecRatio(t *testing.T) {
	p := NewProgress(10, 3)
	observeN(p, 2, 2.0, 2) // done 4: 2 executed at 2s, 2 cached
	s := p.Snapshot()
	// perJob 2s, execRatio 0.5, remaining 6, width 3 -> 2s.
	if s.ETA != 2*time.Second {
		t.Errorf("mixed cached/executed ETA = %v, want 2s", s.ETA)
	}
}

// TestProgressETAUnknowns pins the no-estimate cases: zero executed jobs
// (all cached or failed so far) and a finished sweep both report ETA 0.
func TestProgressETAUnknowns(t *testing.T) {
	p := NewProgress(10, 2)
	observeN(p, 0, 0, 3)
	p.Finish(3, JobResult{Err: "boom"})
	if s := p.Snapshot(); s.ETA != 0 {
		t.Errorf("zero-executed ETA = %v, want 0", s.ETA)
	}

	p = NewProgress(2, 2)
	observeN(p, 2, 1.0, 0)
	s := p.Snapshot()
	if s.ETA != 0 {
		t.Errorf("finished-sweep ETA = %v, want 0", s.ETA)
	}
	if s.Done != 2 || s.Executed != 2 {
		t.Errorf("finished snapshot = %+v", s)
	}
}

// TestProgressRateAndString pins the jobs/sec surface: the snapshot
// carries a positive rate once jobs finish, and String renders it.
func TestProgressRateAndString(t *testing.T) {
	p := NewProgress(10, 2)
	observeN(p, 2, 0.5, 1)
	s := p.Snapshot()
	if s.JobsPerSec <= 0 {
		t.Errorf("JobsPerSec = %v with 3 done", s.JobsPerSec)
	}
	line := s.String()
	if !strings.Contains(line, "jobs/s") {
		t.Errorf("String() missing rate: %q", line)
	}
	if !strings.Contains(line, "3/10 done") || !strings.Contains(line, "2 run, 1 cached") {
		t.Errorf("String() = %q", line)
	}
	if empty := (Snapshot{}).String(); strings.Contains(empty, "jobs/s") || strings.Contains(empty, "eta") {
		t.Errorf("zero snapshot renders rate or eta: %q", empty)
	}
}

// TestProgressPoolFed pins the Options.Progress wiring: the pool feeds
// claims and completions itself, in-flight returns to zero, and the
// counters match the pool's own Stats.
func TestProgressPoolFed(t *testing.T) {
	spec := &Spec{
		Name:     "pool-fed",
		Topos:    []TopoSpec{{Kind: "SF", Q: 5}},
		Algos:    []string{"min"},
		Patterns: []string{"uniform"},
		Loads:    []float64{0.1, 0.2},
		Seeds:    []uint64{1, 2, 3},
		Sim:      SimParams{Warmup: 10, Measure: 20, Drain: 200},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgress(len(jobs), 2)
	results, st, err := RunJobs(context.Background(), jobs, NewEnv(), Options{Workers: 2, Progress: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results = %d", len(results))
	}
	s := p.Snapshot()
	if s.Done != st.Total || s.Executed != st.Executed || s.Failed != st.Failed {
		t.Errorf("progress %+v != stats %+v", s, st)
	}
	if s.InFlight != 0 {
		t.Errorf("in-flight = %d after the pool drained", s.InFlight)
	}
}

// TestProgressFinishOnce pins the ledger's once-per-index rule: a second
// result for a finished index is refused, whatever it says, and moves no
// count; the first result is the one kept.
func TestProgressFinishOnce(t *testing.T) {
	p := NewProgress(3, 2)
	p.JobStarted()
	p.JobStarted()
	first := JobResult{Key: "first", Elapsed: 1, StoreErr: "disk full"}
	if !p.Finish(1, first) {
		t.Fatal("first result for index 1 refused")
	}
	// Elapsed and the rate move with the clock; everything else must not.
	counts := func() Snapshot {
		s := p.Snapshot()
		s.Elapsed, s.JobsPerSec = 0, 0
		return s
	}
	snap, st := counts(), p.Stats()
	for _, dup := range []JobResult{
		{Key: "second", Err: "boom"},
		{Key: "second", Cached: true},
		{Key: "second", Elapsed: 5, StoreErr: "read-only"},
	} {
		if p.Finish(1, dup) {
			t.Errorf("duplicate %+v accepted", dup)
		}
	}
	if got := counts(); got != snap {
		t.Errorf("snapshot after duplicates = %+v, want %+v", got, snap)
	}
	want := Stats{Total: 3, Executed: 1, Skipped: 2, PutErrors: 1, FirstStoreErr: "disk full"}
	if got := p.Stats(); got != st || got != want {
		t.Errorf("stats after duplicates = %+v, want %+v", got, want)
	}
	if fin, fst := p.Finished(); len(fin) != 1 || fin[0].Key != "first" || fst != want {
		t.Errorf("finished = %+v with stats %+v, want only the first result", fin, fst)
	}
	if res := p.Results(); res[1].Key != "first" || res[0].Key != "" || res[2].Key != "" {
		t.Errorf("positional results = %+v", res)
	}
	if snap.InFlight != 1 {
		t.Errorf("in-flight = %d, want 1 (two claims, one finished)", snap.InFlight)
	}
}

// TestProgressConcurrentClaims: claims and abandoned claims move an
// atomic counter and results go in under the ledger's lock. Driven from
// several goroutines at once, with Snapshot read throughout, the counts
// stay in range and agree once every job has finished.
func TestProgressConcurrentClaims(t *testing.T) {
	const n, workers = 400, 4
	p := NewProgress(n, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				p.JobStarted()
				if i%5 == 0 { // a lease that expired: claimed, abandoned, claimed again
					p.JobAbandoned()
					p.JobStarted()
				}
				if s := p.Snapshot(); s.InFlight < 0 || s.InFlight > workers || s.Done > n {
					t.Errorf("snapshot mid-run: %+v", s)
				}
				p.Finish(i, JobResult{Cached: i%2 == 0, Elapsed: 0.001})
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.InFlight != 0 || s.Done != n || s.Cached != n/2 || s.Executed != n/2 {
		t.Errorf("final snapshot %+v", s)
	}
	if st := p.Stats(); st != (Stats{Total: n, Cached: n / 2, Executed: n / 2}) {
		t.Errorf("final stats %+v", st)
	}
}

// TestProgressLedgerAfterCancel: a RunJobs cancelled mid-sweep leaves one
// consistent record. Its Stats are a tally of the finished results, the
// snapshot counts exactly those, no claim is left in flight, and the
// positional results hold the finished ones at their indices.
func TestProgressLedgerAfterCancel(t *testing.T) {
	spec := &Spec{
		Name:     "cancelled",
		Topos:    []TopoSpec{{Kind: "SF", Q: 5}},
		Algos:    []string{"min"},
		Patterns: []string{"uniform"},
		Loads:    []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
		Seeds:    []uint64{1, 2},
		Sim:      SimParams{Warmup: 10, Measure: 20, Drain: 200},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewProgress(len(jobs), 2)
	var n atomic.Int64
	results, st, err := RunJobs(ctx, jobs, NewEnv(), Options{
		Workers:  2,
		Progress: p,
		OnDone: func(int, JobResult) {
			if n.Add(1) == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	fin, finSt := p.Finished()
	tally := Stats{Total: len(jobs), Skipped: len(jobs) - len(fin)}
	for _, r := range fin {
		switch {
		case r.Err != "":
			tally.Failed++
		case r.Cached:
			tally.Cached++
		default:
			tally.Executed++
		}
	}
	if tally.Skipped == 0 {
		t.Fatal("the cancellation skipped no job")
	}
	if st != tally || p.Stats() != tally || finSt != tally {
		t.Errorf("stats = %+v, ledger %+v and %+v, tally of finished results %+v", st, p.Stats(), finSt, tally)
	}
	if s := p.Snapshot(); s.Done != len(fin) || s.InFlight != 0 {
		t.Errorf("snapshot done %d, in flight %d; want %d, 0", s.Done, s.InFlight, len(fin))
	}
	var k int
	for i, r := range results {
		if r.Key == "" {
			continue
		}
		if k == len(fin) || !reflect.DeepEqual(r, fin[k]) {
			t.Fatalf("positional result %d is not finished result %d", i, k)
		}
		k++
	}
	if k != len(fin) {
		t.Errorf("%d positional results, %d finished", k, len(fin))
	}
}
