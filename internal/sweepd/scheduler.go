package sweepd

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"slimfly/internal/obs"
	"slimfly/internal/sweep"
)

// The scheduler shares the pool's queue-depth gauge (obs instruments are
// registered by name, so this is the same instance internal/sweep
// updates): /debug/vars reports one expanded-but-unclaimed total however
// jobs entered the process. The lease instruments cover the remote-worker
// claim surface.
var (
	obsQueueDepth      = obs.NewGauge("sweep.queue_depth")
	obsLeasesActive    = obs.NewGauge("sweepd.leases_active")
	obsLeasesGranted   = obs.NewCounter("sweepd.leases_granted")
	obsLeasesRenewed   = obs.NewCounter("sweepd.leases_renewed")
	obsLeasesExpired   = obs.NewCounter("sweepd.leases_expired")
	obsLeasesCompleted = obs.NewCounter("sweepd.leases_completed")
)

// jobLease is one outstanding remote claim: which job of which sweep,
// who holds it, and when the claim lapses unless renewed. The id is the
// holder's capability -- renewals and completions must present it.
type jobLease struct {
	id      string
	key     string
	owner   string
	run     *sweepRun
	idx     int
	expires time.Time
}

// scheduler is the fair-share claim source for the service's worker
// pool -- local and remote alike. Sweeps with unclaimed jobs sit in an
// active list in submission order and a round-robin cursor hands out ONE
// job per sweep per turn, so a 10,000-point sweep and a 4-point sweep
// queued behind it make progress together: the big sweep cannot starve
// the small one, and every claimed job still executes through
// sweep.Execute -- the same cache-checked path the batch pool runs.
//
// Local workers block in claim() and execute in-process. Remote workers
// (sfworker) claim through lease(): the job leaves the queue under a
// TTL'd lease, the worker heartbeats renewals while it executes, and the
// expiry sweep requeues any lease whose heartbeats stopped -- a
// SIGKILLed worker costs one TTL of latency, never a lost job. Requeued
// jobs take priority over never-claimed ones within their sweep, so a
// recovered job doesn't go to the back of a 10,000-point line.
type scheduler struct {
	workers    int // local executor goroutines (0: remote workers only)
	store      sweep.Store
	env        *sweep.Env
	leaseSweep time.Duration // expiry scan period

	mu       sync.Mutex
	cond     *sync.Cond
	active   []*sweepRun // sweeps with unclaimed jobs, submission order
	rr       int         // round-robin cursor into active
	pending  int         // unclaimed jobs across active
	leases   map[string]*jobLease
	draining bool
	started  bool
	stopExp  chan struct{}
	wg       sync.WaitGroup
}

// newScheduler builds a scheduler with workers local executors (0 means
// one per core; negative means none -- a scheduling-only server whose
// jobs are all executed by remote workers).
func newScheduler(workers int, store sweep.Store, env *sweep.Env, leaseSweep time.Duration) *scheduler {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		workers = 0
	}
	if leaseSweep <= 0 {
		leaseSweep = time.Second
	}
	s := &scheduler{
		workers: workers, store: store, env: env, leaseSweep: leaseSweep,
		leases: make(map[string]*jobLease), stopExp: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the worker goroutines and the lease-expiry sweep.
// Idempotent; submissions made before start just queue (the Server's
// tests rely on that to make claim-order assertions deterministic).
func (s *scheduler) start() {
	s.mu.Lock()
	if s.started || s.draining {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.run()
		}()
	}
	go s.expireLoop()
}

// submit queues a sweep's jobs for claiming. Returns false while (or
// after) draining: a server going down accepts no new work.
func (s *scheduler) submit(r *sweepRun) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.active = append(s.active, r)
	r.inActive = true
	s.pending += len(r.jobs)
	obsQueueDepth.Add(int64(len(r.jobs)))
	s.mu.Unlock()
	s.cond.Broadcast()
	return true
}

// nextLocked picks the next job fair-share: the cursor's sweep yields
// one job -- a requeued one first, else the claim frontier -- and the
// cursor advances. Caller holds s.mu and has checked len(s.active) > 0.
func (s *scheduler) nextLocked() (r *sweepRun, idx int) {
	if s.rr >= len(s.active) {
		s.rr = 0
	}
	r = s.active[s.rr]
	if len(r.requeued) > 0 {
		idx = r.requeued[0]
		r.requeued = r.requeued[1:]
	} else {
		idx = r.next
		r.next++
	}
	s.pending--
	obsQueueDepth.Add(-1)
	if r.next >= len(r.jobs) && len(r.requeued) == 0 {
		// Fully claimed: leave the rotation. The cursor now points at the
		// next sweep, so no sweep's turn is skipped by the removal.
		r.inActive = false
		s.active = append(s.active[:s.rr], s.active[s.rr+1:]...)
		if s.rr >= len(s.active) {
			s.rr = 0
		}
	} else {
		s.rr = (s.rr + 1) % len(s.active)
	}
	return r, idx
}

// claim blocks until a job is available or the scheduler drains: the
// local workers' claim source. It returns the run and the claimed job
// index; ok=false means the worker should exit.
func (s *scheduler) claim() (r *sweepRun, idx int, ok bool) {
	s.mu.Lock()
	for !s.draining && len(s.active) == 0 {
		s.cond.Wait()
	}
	if s.draining {
		s.mu.Unlock()
		return nil, 0, false
	}
	r, idx = s.nextLocked()
	s.mu.Unlock()
	r.claimStarted()
	return r, idx, true
}

// run is one worker's loop: claim fair-share, execute through the shared
// per-job path (cache lookup, lazy build, simulate, cache store), record.
func (s *scheduler) run() {
	for {
		r, idx, ok := s.claim()
		if !ok {
			return
		}
		r.finish(idx, sweep.Execute(sweep.JobTask(s.env, r.jobs[idx]), s.store, 0))
	}
}

// lease is the remote claim: non-blocking. ok=false with draining=false
// means no work right now. The returned grant carries the job itself, so
// the worker needs no further round trip before executing.
func (s *scheduler) lease(owner string, ttl time.Duration) (grant sweep.LeaseGrant, ok, draining bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return grant, false, true
	}
	if len(s.active) == 0 {
		s.mu.Unlock()
		return grant, false, false
	}
	r, idx := s.nextLocked()
	job := r.jobs[idx]
	l := &jobLease{
		id: newLeaseID(), key: job.Key(), owner: owner,
		run: r, idx: idx, expires: time.Now().UTC().Add(ttl),
	}
	s.leases[l.id] = l
	obsLeasesActive.Add(1)
	obsLeasesGranted.Inc()
	s.mu.Unlock()
	r.claimStarted()
	return sweep.LeaseGrant{
		Lease: sweep.Lease{ID: l.id, Key: l.key, Owner: owner, Expires: l.expires},
		Job:   &job, SweepID: r.id, Index: idx,
	}, true, false
}

// renew extends a job lease. sweep.ErrLeaseLost if it expired and was
// requeued (or never existed).
func (s *scheduler) renew(id string, ttl time.Duration) (sweep.Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[id]
	if !ok {
		return sweep.Lease{}, sweep.ErrLeaseLost
	}
	l.expires = time.Now().UTC().Add(ttl)
	obsLeasesRenewed.Inc()
	return sweep.Lease{ID: l.id, Key: l.key, Owner: l.owner, Expires: l.expires}, nil
}

// complete records a leased job's outcome and drops the lease. A lease
// that expired and was requeued is sweep.ErrLeaseLost: the zombie
// worker's result is already in the store via Put, so the re-run (or
// re-claim) turns it into a cache hit -- nothing is recomputed twice
// end-to-end except the race the zombie itself lost.
func (s *scheduler) complete(id string, jr sweep.JobResult) error {
	s.mu.Lock()
	l, ok := s.leases[id]
	if !ok {
		s.mu.Unlock()
		return sweep.ErrLeaseLost
	}
	if jr.Key != "" && jr.Key != l.key {
		s.mu.Unlock()
		return fmt.Errorf("sweepd: completion key %s does not match leased job %s", jr.Key, l.key)
	}
	delete(s.leases, id)
	obsLeasesActive.Add(-1)
	obsLeasesCompleted.Inc()
	s.mu.Unlock()
	l.run.finish(l.idx, jr)
	return nil
}

// requeueLocked puts an expired lease's job back in its sweep's queue,
// re-entering the sweep into the fair-share rotation if it had left.
// Jobs of terminal (cancelled/interrupted) sweeps are dropped, as is
// everything during drain. Caller holds s.mu.
func (s *scheduler) requeueLocked(l *jobLease) {
	r := l.run
	r.abandon() // undo the claim's JobStarted so in-flight counts stay honest
	if s.draining || r.terminated() {
		return
	}
	r.requeued = append(r.requeued, l.idx)
	s.pending++
	obsQueueDepth.Add(1)
	if !r.inActive {
		s.active = append(s.active, r)
		r.inActive = true
	}
	s.cond.Broadcast()
}

// expireLoop periodically requeues leases whose heartbeats stopped.
func (s *scheduler) expireLoop() {
	t := time.NewTicker(s.leaseSweep)
	defer t.Stop()
	for {
		select {
		case <-s.stopExp:
			return
		case now := <-t.C:
			s.expire(now)
		}
	}
}

// expire requeues every lease past its deadline.
func (s *scheduler) expire(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, l := range s.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(s.leases, id)
		obsLeasesActive.Add(-1)
		obsLeasesExpired.Inc()
		s.requeueLocked(l)
	}
}

// leaseList snapshots the outstanding job leases for the observability
// endpoint. Lease IDs are capabilities and are NOT included.
func (s *scheduler) leaseList() []sweep.Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sweep.Lease, 0, len(s.leases))
	for _, l := range s.leases {
		out = append(out, sweep.Lease{Key: l.key, Owner: l.owner, Expires: l.expires})
	}
	return out
}

// remove takes a sweep out of the rotation (cancellation), returning how
// many of its jobs were still unclaimed. Outstanding leases on its jobs
// are left to finish or expire; their requeues are dropped because the
// run is terminal by then.
func (s *scheduler) remove(r *sweepRun) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.active {
		if a != r {
			continue
		}
		unclaimed := len(r.jobs) - r.next + len(r.requeued)
		r.inActive = false
		s.active = append(s.active[:i], s.active[i+1:]...)
		if i < s.rr {
			s.rr--
		}
		if s.rr >= len(s.active) {
			s.rr = 0
		}
		s.pending -= unclaimed
		obsQueueDepth.Add(-int64(unclaimed))
		return unclaimed
	}
	return 0
}

// drain stops all claiming (local and remote) and blocks until every
// local in-flight job has finished (and, with a store, been committed).
// Unclaimed jobs are abandoned -- their sweeps are the resumable ones.
// Outstanding remote leases stay accepted: a worker that finishes during
// the drain window still lands its Put and completion. Idempotent.
func (s *scheduler) drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.active = nil
		obsQueueDepth.Add(-int64(s.pending))
		s.pending = 0
		close(s.stopExp)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// newLeaseID returns a fresh unguessable job-lease id (the holder's
// capability for renew/complete).
func newLeaseID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("sweepd: no entropy for lease id: " + err.Error())
	}
	return "jl-" + hex.EncodeToString(b[:])
}

// clampTTL normalises a requested lease TTL: the default is 30s, the
// floor keeps tests honest without letting a zero slip through, the
// ceiling bounds how long a dead worker can sit on a job.
func clampTTL(d time.Duration) time.Duration {
	switch {
	case d <= 0:
		return 30 * time.Second
	case d < 50*time.Millisecond:
		return 50 * time.Millisecond
	case d > 10*time.Minute:
		return 10 * time.Minute
	}
	return d
}
