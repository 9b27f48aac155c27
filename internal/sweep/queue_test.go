package sweep

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countSink is a Sink that only counts: claims, and finishes and
// requeues per job.
type countSink struct {
	name     string
	claims   atomic.Int64
	finished []atomic.Int64
	requeued []atomic.Bool
}

func newCountSink(name string, njobs int) *countSink {
	return &countSink{name: name, finished: make([]atomic.Int64, njobs), requeued: make([]atomic.Bool, njobs)}
}

func (s *countSink) Claimed()                    { s.claims.Add(1) }
func (s *countSink) Finish(idx int, _ JobResult) { s.finished[idx].Add(1) }

// mkBatch builds an njobs-point batch whose Sink is a countSink named
// name. Nothing executes its jobs.
func mkBatch(name string, njobs int) *Batch {
	jobs := make([]Job, njobs)
	for i := range jobs {
		jobs[i] = Job{Topo: TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Load: 0.01 * float64(i+1)}
	}
	return &Batch{Jobs: jobs, Sink: newCountSink(name, njobs)}
}

// TestFairShareClaimOrder drives the queue directly (no workers) and
// pins the interleaving: one claim per sweep per turn, in submission
// order, with the big sweep taking the leftover turns alone.
func TestFairShareClaimOrder(t *testing.T) {
	q := NewQueue()
	for _, b := range []*Batch{mkBatch("A", 5), mkBatch("B", 2), mkBatch("C", 1)} {
		if !q.Submit(b) {
			t.Fatal("submit refused")
		}
	}
	var order []string
	for i := 0; i < 8; i++ {
		b, _, err := q.Claim(true)
		if err != nil {
			t.Fatal("claim refused")
		}
		order = append(order, b.Sink.(*countSink).name)
	}
	got := strings.Join(order, "")
	// Round-robin: A B C | A B | A A A (C exhausts after turn 1, B after
	// turn 2, then A drains alone).
	if want := "ABCABAAA"; got != want {
		t.Errorf("claim order %q, want %q", got, want)
	}
	if n := q.Pending(); n != 0 {
		t.Errorf("pending = %d after full drain", n)
	}
}

// TestQueueRequeueRemoveDrain pins the rest of the queue's contract on
// one goroutine: a requeued job goes out before its batch's frontier and
// brings a fully claimed batch back into the rotation; Remove drops a
// batch's unclaimed jobs and its later requeues; Drain refuses every
// claim, submit and requeue after it.
func TestQueueRequeueRemoveDrain(t *testing.T) {
	q := NewQueue()
	a, b := mkBatch("A", 3), mkBatch("B", 1)
	q.Submit(a)
	q.Submit(b)
	claim := func() (string, int) {
		t.Helper()
		got, idx, err := q.Claim(false)
		if err != nil || got == nil {
			t.Fatalf("claim: batch %v, err %v", got, err)
		}
		return got.Sink.(*countSink).name, idx
	}
	// A0 B0 (B leaves the rotation). B0 requeued re-enters it, and A0
	// requeued goes out before A's frontier.
	claim()
	claim()
	q.Requeue(b, 0)
	q.Requeue(a, 0)
	var got []string
	for range 4 {
		name, idx := claim()
		got = append(got, name+string(rune('0'+idx)))
	}
	if s := strings.Join(got, " "); s != "A0 B0 A1 A2" {
		t.Errorf("claims after requeue = %q, want %q", s, "A0 B0 A1 A2")
	}
	q.Requeue(a, 1)
	q.Requeue(a, 2)
	if name, idx := claim(); name != "A" || idx != 1 {
		t.Errorf("requeued jobs went out as %s%d, want A1 first", name, idx)
	}
	q.Remove(a)
	q.Requeue(a, 0)
	if n := q.Pending(); n != 0 {
		t.Errorf("pending = %d after Remove and a requeue into the removed batch", n)
	}
	if got, _, err := q.Claim(false); got != nil || err != nil {
		t.Errorf("empty queue claim = %v, %v; want nil batch, nil error", got, err)
	}
	removed := mkBatch("R", 2)
	q.Remove(removed)
	q.Submit(removed)
	if n := q.Pending(); n != 0 {
		t.Errorf("a batch removed before Submit queued %d jobs", n)
	}

	c := mkBatch("C", 2)
	q.Submit(c)
	q.Drain()
	q.Drain()
	if _, _, err := q.Claim(true); !errors.Is(err, ErrDraining) {
		t.Errorf("claim after Drain: err %v, want ErrDraining", err)
	}
	if q.Submit(mkBatch("D", 1)) {
		t.Error("Submit accepted after Drain")
	}
	q.Requeue(c, 0)
	if n := q.Pending(); n != 0 {
		t.Errorf("pending = %d after Drain", n)
	}
	if n := a.Sink.(*countSink).claims.Load(); n != 5 {
		t.Errorf("A's sink saw %d claims, want 5", n)
	}
}

// TestQueueConcurrent drives Submit, Claim, Requeue, Remove and Drain
// from many goroutines at once. Every job of a batch that is never
// removed finishes exactly once, whatever was requeued on the way; a
// removed batch's jobs finish at most once; every claim is reported to
// its sink; and Drain releases every blocked claimer.
func TestQueueConcurrent(t *testing.T) {
	const batches, jobsPer, claimers = 24, 40, 8
	removed := func(i int) bool { return i%3 == 1 }
	q := NewQueue()
	bs := make([]*Batch, batches)
	var keptLeft sync.WaitGroup // one count per unfinished job of a kept batch
	for i := range bs {
		bs[i] = mkBatch(strconv.Itoa(i), jobsPer)
		if !removed(i) {
			keptLeft.Add(jobsPer)
		}
	}
	var claimWG sync.WaitGroup
	for range claimers {
		claimWG.Add(1)
		go func() {
			defer claimWG.Done()
			for {
				b, idx, err := q.Claim(true)
				if err != nil {
					if !errors.Is(err, ErrDraining) {
						t.Errorf("blocking claim: %v", err)
					}
					return
				}
				s := b.Sink.(*countSink)
				// A job whose index is a multiple of 3 is handed back on its
				// first claim, as an expired lease would be.
				if idx%3 == 0 && !s.requeued[idx].Swap(true) {
					q.Requeue(b, idx)
					continue
				}
				s.Finish(idx, JobResult{})
				if i, _ := strconv.Atoi(s.name); !removed(i) {
					keptLeft.Done()
				}
			}
		}()
	}
	var subWG sync.WaitGroup
	for i, b := range bs {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			if !q.Submit(b) {
				t.Errorf("submit %d refused", i)
			}
			if removed(i) {
				q.Remove(b)
			}
		}()
	}
	subWG.Wait()
	keptLeft.Wait()
	q.Drain()
	claimWG.Wait()

	for i, b := range bs {
		s := b.Sink.(*countSink)
		var finishes, requeues int64
		for idx := range s.finished {
			n := s.finished[idx].Load()
			finishes += n
			if n > 1 || !removed(i) && n != 1 {
				t.Errorf("batch %d job %d finished %d times", i, idx, n)
			}
			if s.requeued[idx].Load() {
				requeues++
			}
		}
		if !removed(i) && s.claims.Load() != finishes+requeues {
			t.Errorf("batch %d: %d claims for %d finishes and %d requeues", i, s.claims.Load(), finishes, requeues)
		}
	}
	if n := q.Pending(); n != 0 {
		t.Errorf("pending = %d after Drain", n)
	}
}

// TestQueuePendingWhileClaiming: Pending takes no lock, so it is read
// here while claimers drain a batch; with no requeue it only falls, never
// leaves [0, jobs], and ends at 0 with every job claimed once.
func TestQueuePendingWhileClaiming(t *testing.T) {
	const jobs, claimers = 400, 4
	q := NewQueue()
	b := mkBatch("A", jobs)
	q.Submit(b)
	var wg sync.WaitGroup
	for range claimers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, idx, err := q.Claim(false)
				if err != nil || b == nil {
					return
				}
				b.Sink.Finish(idx, JobResult{})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := jobs
	for running := true; running; {
		select {
		case <-done:
			running = false // one more read: the final count
		default:
		}
		n := q.Pending()
		if n < 0 || n > last {
			t.Fatalf("pending %d after %d", n, last)
		}
		last = n
	}
	s := b.Sink.(*countSink)
	for idx := range s.finished {
		if n := s.finished[idx].Load(); n != 1 {
			t.Errorf("job %d claimed %d times", idx, n)
		}
	}
	if n := q.Pending(); n != 0 || s.claims.Load() != jobs {
		t.Errorf("pending %d, claims %d; want 0 and %d", n, s.claims.Load(), jobs)
	}
}

// TestRunJobsCancelSkipped: with one worker, cancelling from OnDone
// after the fifth result drains the queue before any further claim, so
// exactly five jobs ran and the rest are Skipped. A context cancelled
// before the call runs nothing.
func TestRunJobsCancelSkipped(t *testing.T) {
	spec := &Spec{
		Name:  "cancel",
		Topos: []TopoSpec{{Kind: "SF", Q: 6}}, // not an MMS order: every job fails at once
		Algos: []string{"min"},
		Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1},
		Sim:   SimParams{Warmup: 10, Measure: 20, Drain: 100},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	results, st, err := RunJobs(ctx, jobs, NewEnv(), Options{
		Workers: 1,
		OnDone: func(int, JobResult) {
			if done.Add(1) == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if want := (Stats{Total: 10, Failed: 5, Skipped: 5}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	for i, r := range results {
		if ran := r.Err != ""; ran != (i < 5) {
			t.Errorf("result %d ran = %v", i, ran)
		}
	}

	results, st, err = RunJobs(ctx, jobs, NewEnv(), Options{
		OnDone: func(int, JobResult) { t.Error("a job ran under a cancelled context") },
	})
	if !errors.Is(err, context.Canceled) || st != (Stats{Total: 10, Skipped: 10}) || len(results) != 10 {
		t.Errorf("pre-cancelled run: %d results, stats %+v, err %v", len(results), st, err)
	}
}
