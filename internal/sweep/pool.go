package sweep

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"time"

	"slimfly/internal/metrics"
	"slimfly/internal/obs"
	"slimfly/internal/sim"
)

// Runtime telemetry (internal/obs) for the pool, aggregated across every
// concurrently running sweep in the process; /debug/vars exposes them
// when a CLI enables -debug-addr. A sweep's own counts live in its
// Progress.
var (
	obsQueueDepth     = obs.NewGauge("sweep.queue_depth")   // expanded but unclaimed jobs
	obsInFlight       = obs.NewGauge("sweep.jobs_inflight") // claimed, still executing
	obsJobsDone       = obs.NewCounter("sweep.jobs_done")
	obsJobsFailed     = obs.NewCounter("sweep.jobs_failed")
	obsCacheHits      = obs.NewCounter("sweep.cache_hits")
	obsCacheMisses    = obs.NewCounter("sweep.cache_misses")
	obsCachePutErrors = obs.NewCounter("sweep.cache_put_errors") // store writes that failed (results kept)
	obsJobSpan        = obs.NewTimer("sweep.job")                // executed (non-cached) jobs only
)

// JobResult is the outcome of one sweep point. Metrics carries the
// structured collector summary when the job's SimParams requested
// collectors (nil otherwise), whether executed or served from the cache.
type JobResult struct {
	Job     Job              `json:"job"`
	Key     string           `json:"key,omitempty"`
	Result  sim.Result       `json:"result"`
	Metrics *metrics.Summary `json:"metrics,omitempty"`
	Cached  bool             `json:"cached"`          // served from the result cache
	Err     string           `json:"error,omitempty"` // non-empty: job failed
	// StoreErr records a failed result-store write (read-only or full
	// cache volume, unreachable remote store). The result itself is good
	// -- only its reuse by future runs is lost -- so this is a warning,
	// not a failure; Stats surfaces the first one per run.
	StoreErr string  `json:"store_error,omitempty"`
	Elapsed  float64 `json:"elapsed_seconds"` // execution time; 0 for cache hits
}

// Stats summarises a sweep; Progress.Stats tallies it.
type Stats struct {
	Total    int // jobs in the sweep
	Executed int // simulated this run (cache misses)
	Cached   int // served from the cache
	Failed   int // build or configuration errors
	Skipped  int // not reached before cancellation
	// PutErrors counts store writes that failed; every one degraded a
	// future run to recomputation. FirstStoreErr is the first such error
	// text, for the summary line -- before these existed, a read-only
	// cache volume silently turned every worker into a permanent
	// recompute loop with zero signal.
	PutErrors     int    `json:",omitempty"`
	FirstStoreErr string `json:",omitempty"`
}

// Options configures a pool run.
type Options struct {
	// Workers is the pool width; 0 means one per available core.
	Workers int
	// Store, when non-nil, short-circuits jobs whose key is already
	// stored and records fresh results for future runs. The local Cache
	// is the usual backend; a RemoteStore shares results across
	// machines. (Interface nil-ness: assign a typed pointer only when it
	// is non-nil, or a nil *Cache masquerades as a live store.)
	Store Store
	// OnDone, when non-nil, is called once per finished job, from worker
	// goroutines (it must be safe for concurrent use).
	OnDone func(index int, r JobResult)
	// Progress, when non-nil, is the sweep's ledger, made by
	// NewProgress(len(jobs), ...): the pool records every claim and result
	// in it, so a caller can watch the sweep live. When nil, RunJobs keeps
	// a private one.
	Progress *Progress
}

// Task is one executable unit for Execute: a descriptive job, an
// optional cache key (empty disables caching for this task) and a lazy
// config builder invoked only on cache misses.
type Task struct {
	Job   Job
	Key   string
	Build func() (sim.Config, error)
}

// RunJobs executes an already expanded job list against env: a Queue
// holding this one sweep, served by opts.Workers workers and no leases.
// Results are positional: results[i] corresponds to jobs[i]. Cancelling
// ctx drains the queue; the slice then holds every job finished (jobs in
// flight run to their result), the unclaimed ones are counted in
// Stats.Skipped, and the context error is returned.
func RunJobs(ctx context.Context, jobs []Job, env *Env, opts Options) ([]JobResult, Stats, error) {
	p := &pool{done: ctx.Done(), q: NewQueue(), led: opts.Progress, onDone: opts.OnDone}
	if p.led == nil {
		p.led = NewProgress(len(jobs), opts.Workers)
	}
	if len(jobs) > 0 && ctx.Err() == nil {
		p.q.Submit(&Batch{Jobs: jobs, Sink: p})
		defer context.AfterFunc(ctx, p.q.Drain)()
		nw := cmp.Or(max(opts.Workers, 0), runtime.GOMAXPROCS(0))
		p.q.Serve(min(nw, len(jobs)), env, opts.Store)
	}
	// Serve returned once every claimed job had its result, so nothing
	// writes the ledger any more: a private one's results are handed over
	// as they are, and a caller's ledger, which the caller may still be
	// reading, is copied.
	results := p.led.results
	if opts.Progress != nil {
		results = p.led.Results()
	}
	return results, p.led.Stats(), ctx.Err()
}

// pool is RunJobs' Sink: the sweep's ledger, the caller's OnDone, and the
// drain that ends Serve once every job is claimed (claimed jobs still run
// to their result) or ctx is cancelled. Draining in Claimed, on the worker
// that took the last job, lets the others return at once instead of
// waiting for a job that will not come; draining in Finish, on the worker
// that saw the cancellation, means no worker claims another job after it.
// Neither takes a lock: Pending is an atomic load and done is polled.
type pool struct {
	done   <-chan struct{} // ctx.Done(): nil for a context never cancelled
	q      *Queue
	led    *Progress
	onDone func(int, JobResult)
}

func (p *pool) Claimed() {
	p.led.JobStarted()
	if p.q.Pending() == 0 {
		p.q.Drain()
	}
}

func (p *pool) Finish(idx int, jr JobResult) {
	p.led.Finish(idx, jr)
	if p.onDone != nil {
		p.onDone(idx, jr)
	}
	select {
	case <-p.done: // cancelled; polled, as ctx.Err would take a lock
		p.q.Drain()
	default:
	}
}

// Execute runs one task synchronously -- store lookup, lazy build,
// simulate, store write -- and updates the process telemetry
// (in-flight/done/failed, cache hits, job span). A panic in construction
// or simulation becomes a failed result, so one bad point cannot take
// down a long sweep. Every claim loop runs its jobs through it (runJob),
// so a result is bit-identical whether it came from RunJobs, sfsweepd, a
// remote worker, or a resumed run of any of them.
//
// The third parameter is ignored; it stays only because cmd/sfbench passes it.
func Execute(t Task, store Store, _ int) JobResult {
	return execute(t.Job, t.Key, t.Build, store)
}

// execute is Execute with the task's fields as parameters. Escape
// analysis judges a parameter whole, and a task's key goes to the store
// (an interface call, so to the heap): passed apart from it, the build
// closure stays where its caller made it, and a cache hit in runJob
// allocates nothing here.
func execute(job Job, key string, build func() (sim.Config, error), store Store) (jr JobResult) {
	jr = JobResult{Job: job, Key: key}
	obsInFlight.Add(1)
	defer func() {
		if p := recover(); p != nil {
			jr.Err = fmt.Sprintf("panic: %v", p)
		}
		obsInFlight.Add(-1)
		obsJobsDone.Inc()
		if jr.Err != "" {
			obsJobsFailed.Inc()
		}
	}()
	if store != nil && key != "" {
		if e, ok := store.Get(key); ok {
			obsCacheHits.Inc()
			jr.Result = e.Result
			jr.Metrics = e.Metrics
			jr.Cached = true
			return jr
		}
		obsCacheMisses.Inc()
	}
	cfg, err := build()
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	defer obsJobSpan.Start().End()
	start := time.Now()
	res, sum, err := sim.RunSummary(cfg)
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.Result = res
	jr.Metrics = sum
	jr.Elapsed = time.Since(start).Seconds()
	if store != nil && key != "" {
		// A failed store write only degrades future runs to recomputation
		// -- the result itself is still good -- but it must not be
		// silent: a read-only or full cache volume would otherwise turn
		// every future run into permanent recomputation with no signal.
		if err := store.Put(key, Entry{
			Job: job, Result: res, Metrics: sum, Elapsed: jr.Elapsed, Created: time.Now().UTC(),
		}); err != nil {
			obsCachePutErrors.Inc()
			jr.StoreErr = err.Error()
		}
	}
	return jr
}
