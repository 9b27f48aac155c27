package sweep

import (
	"context"
	"errors"
	"time"

	"slimfly/internal/obs"
)

var (
	obsWorkerClaims   = obs.NewCounter("sweep.worker.claims")
	obsWorkerLost     = obs.NewCounter("sweep.worker.leases_lost") // completed after expiry; result still cached
	obsWorkerRenewals = obs.NewCounter("sweep.worker.renewals")
)

// WorkerOptions configures one Work loop.
type WorkerOptions struct {
	// Owner identifies this worker in leases (hostname-pid by default at
	// the CLI; required non-empty here only for legible server state).
	Owner string
	// TTL is the lease duration requested per claim; the loop heartbeats
	// a renewal every TTL/3, so a live worker never expires and a
	// SIGKILLed one expires within TTL. Default 30s.
	TTL time.Duration
	// Poll is the idle backoff: how long to sleep after an empty claim
	// before asking again. Default 500ms.
	Poll time.Duration
	// IdleExit, when positive, ends the loop (without error) after this
	// long without any work. 0 polls forever.
	IdleExit time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// WorkerStats summarises a Work loop's lifetime.
type WorkerStats struct {
	Claimed int // leases granted
	Done    int // completed successfully (includes cache hits)
	Failed  int // completed with a job error
	Lost    int // lease expired before completion; job requeued elsewhere
}

// Work is the worker-fleet claim loop: lease a job from the sfsweepd
// behind rs, execute it through the same step a Queue's workers run
// (runJob, with rs as the result store, so the entry lands on the server
// the moment it exists), report completion, repeat. Renewals
// heartbeat in the background at TTL/3; if this process dies mid-job,
// the stopped heartbeat lets the lease expire and the server requeues
// the job for another worker -- and because every path funnels through
// runJob and Spec.Key, the re-run's entry is byte-identical to the one
// this worker would have produced.
//
// Work returns when ctx is cancelled (the in-flight job, if any, is
// finished and reported first) or when IdleExit elapses with no work.
func Work(ctx context.Context, rs *RemoteStore, env *Env, opts WorkerOptions) (WorkerStats, error) {
	var stats WorkerStats
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	idleSince := time.Now()
	for ctx.Err() == nil {
		grant, ok, err := rs.ClaimJob(opts.Owner, ttl)
		if err != nil && !errors.Is(err, ErrDraining) {
			logf("claim failed: %v", err)
		}
		if !ok {
			if opts.IdleExit > 0 && time.Since(idleSince) >= opts.IdleExit {
				logf("idle for %s; exiting", opts.IdleExit)
				return stats, nil
			}
			select {
			case <-ctx.Done():
			case <-time.After(poll):
			}
			continue
		}
		idleSince = time.Now()
		stats.Claimed++
		obsWorkerClaims.Inc()
		logf("claimed %s (%s, sweep %s job %d)", grant.Lease.Key[:12], grant.Job.Label(), grant.SweepID, grant.Index)

		// Heartbeat: renew at TTL/3 until the job completes. A lost lease
		// does not abort the simulation -- the work is nearly free to
		// finish and the Put makes it a cache hit for whoever re-runs it.
		stop := make(chan struct{})
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			t := time.NewTicker(ttl / 3)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if _, err := rs.RenewJob(grant.Lease.ID, ttl); err != nil {
						if errors.Is(err, ErrLeaseLost) {
							logf("lease on %s lost mid-job; finishing anyway (result will be cached)", grant.Lease.Key[:12])
							return
						}
						logf("renewal failed (will retry): %v", err)
						continue
					}
					obsWorkerRenewals.Inc()
				}
			}
		}()

		jr := runJob(env, rs, *grant.Job)
		close(stop)
		<-hbDone

		switch err := rs.CompleteJob(grant.Lease.ID, jr); {
		case errors.Is(err, ErrLeaseLost):
			stats.Lost++
			obsWorkerLost.Inc()
			logf("completion for %s rejected: lease expired and the job was requeued", grant.Lease.Key[:12])
		case err != nil:
			logf("completion for %s failed: %v", grant.Lease.Key[:12], err)
		case jr.Err != "":
			stats.Failed++
			logf("job %s FAILED: %s", jr.Job.Label(), jr.Err)
		default:
			stats.Done++
			logf("job %s done in %.2fs (cached=%v)", jr.Job.Label(), jr.Elapsed, jr.Cached)
		}
	}
	return stats, ctx.Err()
}
