package sweepd

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"slimfly/internal/obs"
	"slimfly/internal/sweep"
)

// The lease instruments cover the remote-worker claim surface.
var (
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

// leaseMap is the remote half of the service's claiming. Remote workers
// (sfworker) claim from the same fair-share sweep.Queue the local
// workers serve, but through lease(): the job leaves the queue under a
// TTL'd lease, the worker heartbeats renewals while it executes, and the
// expiry sweep requeues any lease whose heartbeats stopped -- a
// SIGKILLed worker costs one TTL of latency, never a lost job.
type leaseMap struct {
	q  *sweep.Queue
	mu sync.Mutex
	m  map[string]*jobLease
}

// lease is the remote claim: non-blocking. ok=false with a nil error
// means no work right now; sweep.ErrDraining means the queue drains. The
// returned grant carries the job itself, so the worker needs no further
// round trip before executing.
func (ls *leaseMap) lease(owner string, ttl time.Duration) (grant sweep.LeaseGrant, ok bool, err error) {
	b, idx, err := ls.q.Claim(false)
	if b == nil {
		return grant, false, err
	}
	r := b.Sink.(*sweepRun)
	job := r.batch.Jobs[idx]
	l := &jobLease{
		id: newLeaseID(), key: job.Key(), owner: owner,
		run: r, idx: idx, expires: time.Now().UTC().Add(ttl),
	}
	ls.mu.Lock()
	ls.m[l.id] = l
	obsLeasesActive.Add(1)
	obsLeasesGranted.Inc()
	ls.mu.Unlock()
	return sweep.LeaseGrant{
		Lease: sweep.Lease{ID: l.id, Key: l.key, Owner: owner, Expires: l.expires},
		Job:   &job, SweepID: r.id, Index: idx,
	}, true, nil
}

// renew extends a job lease. sweep.ErrLeaseLost if it expired and was
// requeued (or never existed).
func (ls *leaseMap) renew(id string, ttl time.Duration) (sweep.Lease, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l, ok := ls.m[id]
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
func (ls *leaseMap) complete(id string, jr sweep.JobResult) error {
	ls.mu.Lock()
	l, ok := ls.m[id]
	if !ok {
		ls.mu.Unlock()
		return sweep.ErrLeaseLost
	}
	if jr.Key != "" && jr.Key != l.key {
		ls.mu.Unlock()
		return fmt.Errorf("sweepd: completion key %s does not match leased job %s", jr.Key, l.key)
	}
	delete(ls.m, id)
	obsLeasesActive.Add(-1)
	obsLeasesCompleted.Inc()
	ls.mu.Unlock()
	l.run.Finish(l.idx, jr)
	return nil
}

// expire requeues every lease past its deadline. The queue drops the
// requeue of a cancelled sweep, and every requeue once it drains.
func (ls *leaseMap) expire(now time.Time) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for id, l := range ls.m {
		if now.Before(l.expires) {
			continue
		}
		delete(ls.m, id)
		obsLeasesActive.Add(-1)
		obsLeasesExpired.Inc()
		l.run.abandon() // undo the claim's JobStarted so in-flight counts stay honest
		ls.q.Requeue(&l.run.batch, l.idx)
	}
}

// list snapshots the outstanding job leases for the observability
// endpoint. Lease IDs are capabilities and are NOT included.
func (ls *leaseMap) list() []sweep.Lease {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := make([]sweep.Lease, 0, len(ls.m))
	for _, l := range ls.m {
		out = append(out, sweep.Lease{Key: l.key, Owner: l.owner, Expires: l.expires})
	}
	return out
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
