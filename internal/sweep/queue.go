package sweep

import (
	"slices"
	"sync"
	"sync/atomic"

	"slimfly/internal/sim"
)

// Queue is the one claim source every sweep runs on. RunJobs holds its
// one sweep in a Queue of its own; sfsweepd holds every submitted sweep
// in one, which its local workers (Serve) and its leases to remote
// sfworkers (Claim without waiting) both draw from. Claims are
// fair-share: a round-robin cursor over the batches with unclaimed jobs,
// in submission order, hands out ONE job per batch per turn, so a
// 10,000-point sweep and a 4-point sweep queued behind it make progress
// together. A requeued job goes out before its batch's never-claimed
// ones.
type Queue struct {
	mu       sync.Mutex
	cond     sync.Cond
	active   []*Batch // batches with unclaimed jobs, submission order
	rr       int      // round-robin cursor into active
	draining bool

	// pending counts unclaimed jobs across active. It is written under mu
	// and read without it, so Pending takes no lock.
	pending atomic.Int64
}

// A Batch is one sweep as a Queue holds it: its jobs in expansion order
// and the Sink their claims and results report to. The unexported claim
// state is the queue's, guarded by its mutex.
type Batch struct {
	Jobs []Job
	Sink Sink

	next     int   // claim frontier
	requeued []int // handed out again before the frontier moves
	inActive bool  // in the queue's rotation
	removed  bool  // taken out by Remove: its requeues are dropped
}

// Sink is where a Batch's claims and results go.
type Sink interface {
	Claimed()                     // once per claim, outside the queue's lock
	Finish(idx int, jr JobResult) // from Serve's worker goroutines
}

// NewQueue returns an empty queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond.L = &q.mu
	return q
}

// Submit queues b's jobs. It returns false once the queue drains: a
// draining queue accepts no new work.
func (q *Queue) Submit(b *Batch) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return false
	}
	if len(b.Jobs) > 0 && !b.removed { // a batch removed before it was submitted never runs
		q.pending.Add(int64(len(b.Jobs)))
		obsQueueDepth.Add(int64(len(b.Jobs)))
		q.enterLocked(b)
	}
	return true
}

// Claim hands out the cursor's batch's next job and reports the claim to
// its Sink. With wait it blocks while no job is queued; without, it
// returns a nil batch at once. Once the queue drains it returns
// ErrDraining.
func (q *Queue) Claim(wait bool) (*Batch, int, error) {
	q.mu.Lock()
	for wait && !q.draining && len(q.active) == 0 {
		q.cond.Wait()
	}
	if len(q.active) == 0 { // always so once draining
		var err error
		if q.draining {
			err = ErrDraining
		}
		q.mu.Unlock()
		return nil, 0, err
	}
	b := q.active[q.rr]
	var idx int
	if len(b.requeued) > 0 {
		idx = b.requeued[0]
		b.requeued = b.requeued[1:]
	} else {
		idx = b.next
		b.next++
	}
	q.pending.Add(-1)
	obsQueueDepth.Add(-1)
	if b.next == len(b.Jobs) && len(b.requeued) == 0 {
		q.leaveLocked(q.rr) // fully claimed
	} else {
		q.rr = (q.rr + 1) % len(q.active)
	}
	q.mu.Unlock()
	b.Sink.Claimed()
	return b, idx, nil
}

// Requeue hands job idx of b out again, putting b back in the rotation
// if it had left. It is dropped if b was removed or the queue drains.
func (q *Queue) Requeue(b *Batch, idx int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining || b.removed {
		return
	}
	b.requeued = append(b.requeued, idx)
	q.pending.Add(1)
	obsQueueDepth.Add(1)
	if !b.inActive {
		q.enterLocked(b)
	}
}

// Remove takes b out of the rotation for good (cancellation): its
// unclaimed jobs never run. Claims already handed out are left to finish.
func (q *Queue) Remove(b *Batch) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b.removed = true
	if !b.inActive {
		return
	}
	unclaimed := len(b.Jobs) - b.next + len(b.requeued)
	q.pending.Add(-int64(unclaimed))
	obsQueueDepth.Add(-int64(unclaimed))
	q.leaveLocked(slices.Index(q.active, b))
}

// Drain stops all claiming: unclaimed jobs are dropped, blocked claims
// return ErrDraining, and Submit and Requeue refuse. Idempotent.
func (q *Queue) Drain() {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		for _, b := range q.active {
			b.inActive = false
		}
		q.active = nil
		obsQueueDepth.Add(-q.pending.Swap(0))
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Pending is the number of queued jobs no one has claimed. It takes no
// lock.
func (q *Queue) Pending() int { return int(q.pending.Load()) }

// enterLocked appends b to the rotation and wakes blocked claims.
func (q *Queue) enterLocked(b *Batch) {
	b.inActive = true
	q.active = append(q.active, b)
	q.cond.Broadcast()
}

// leaveLocked takes active[i] out of the rotation without skipping any
// other batch's turn.
func (q *Queue) leaveLocked(i int) {
	q.active[i].inActive = false
	q.active = slices.Delete(q.active, i, i+1)
	if i < q.rr {
		q.rr--
	}
	if q.rr >= len(q.active) {
		q.rr = 0
	}
}

// Serve runs workers goroutines that claim, execute and Finish jobs until
// the queue drains, and returns once every claimed job has finished.
func (q *Queue) Serve(workers int, env *Env, store Store) {
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, idx, err := q.Claim(true)
				if err != nil {
					return
				}
				b.Sink.Finish(idx, runJob(env, store, b.Jobs[idx]))
			}
		}()
	}
	wg.Wait()
}

// runJob is the one worker step after a claim, for Serve and the sfworker
// lease loop alike: the job's Task, and so its Spec.Key, is built at
// claim time and runs through Execute, its config built lazily by env.
func runJob(env *Env, store Store, j Job) JobResult {
	return execute(j, j.Key(), func() (sim.Config, error) { return env.Config(j) }, store)
}
