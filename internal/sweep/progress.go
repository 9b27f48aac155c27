package sweep

import (
	"fmt"
	"time"

	"slimfly/internal/obs"
)

// Progress tracks a running sweep on lock-free obs instruments (the
// counters are unregistered instances of the same atomic primitives the
// global telemetry uses), so Observe from many workers and Snapshot from
// a progress-printing goroutine never contend on a lock. The pool feeds
// it directly when handed via Options.Progress; it also works as a plain
// Options.OnDone sink. The ETA estimates remaining wall time from the
// average execution time of the jobs simulated so far, divided across
// the effective parallelism (cache hits are treated as free).
type Progress struct {
	total   int
	workers int
	start   time.Time

	started  obs.Counter // claimed by the pool (Options.Progress path only)
	done     obs.Counter
	cached   obs.Counter
	failed   obs.Counter
	executed obs.Counter
	execNS   obs.Counter // summed execution time of executed jobs
}

// NewProgress returns a tracker for a sweep of total jobs on workers
// workers.
func NewProgress(total, workers int) *Progress {
	if workers < 1 {
		workers = 1
	}
	return &Progress{total: total, workers: workers, start: time.Now()}
}

// JobStarted marks one job claimed by a worker; paired with the Observe
// call when it finishes, it makes in-flight counts visible. Queue sinks
// call it on each claim: RunJobs for a tracker handed in via
// Options.Progress, sfsweepd for each sweep's own.
func (p *Progress) JobStarted() { p.started.Inc() }

// JobAbandoned undoes one JobStarted whose claim evaporated without a
// finished job: a remote worker's lease expired and its job went back to
// the queue. Without it, every requeue would leak one phantom in-flight
// job into snapshots for the rest of the sweep.
func (p *Progress) JobAbandoned() { p.started.Add(-1) }

// Observe records one finished job. Safe for concurrent use.
func (p *Progress) Observe(r JobResult) {
	switch {
	case r.Err != "":
		p.failed.Inc()
	case r.Cached:
		p.cached.Inc()
	default:
		p.executed.Inc()
		p.execNS.Add(int64(r.Elapsed * float64(time.Second)))
	}
	p.done.Inc() // last: a snapshot's done never exceeds its breakdown
}

// Snapshot is a point-in-time view of a sweep's progress. The JSON tags
// serve the expvar surface: sfsweep publishes its live snapshot as
// slimfly.sweep_progress on /debug/vars, in the same lowercase style as
// the rest of the page.
type Snapshot struct {
	Total      int           `json:"total"`
	Done       int           `json:"done"`
	Cached     int           `json:"cached"`
	Failed     int           `json:"failed"`
	Executed   int           `json:"executed"`
	InFlight   int           `json:"in_flight"` // claimed but unfinished (pool-fed trackers only)
	Elapsed    time.Duration `json:"elapsed_ns"`
	ETA        time.Duration `json:"eta_ns"`       // 0 when unknown or finished
	JobsPerSec float64       `json:"jobs_per_sec"` // finished jobs per wall-clock second
}

// Snapshot returns the current counters, rate and ETA.
func (p *Progress) Snapshot() Snapshot {
	s := Snapshot{
		Total:    p.total,
		Done:     int(p.done.Value()),
		Cached:   int(p.cached.Value()),
		Failed:   int(p.failed.Value()),
		Executed: int(p.executed.Value()),
		Elapsed:  time.Since(p.start),
	}
	if inflight := int(p.started.Value()) - s.Done; inflight > 0 {
		s.InFlight = inflight
	}
	if s.Done > 0 && s.Elapsed > 0 {
		s.JobsPerSec = float64(s.Done) / s.Elapsed.Seconds()
	}
	remaining := p.total - s.Done
	if remaining > 0 && s.Executed > 0 {
		perJob := time.Duration(p.execNS.Value() / int64(s.Executed))
		// Cache hits are near-free, so scale the remaining count by the
		// observed execution ratio: resuming a mostly cached sweep should
		// not forecast full-cost work for points that will be served from
		// disk.
		execRatio := float64(s.Executed) / float64(s.Done)
		// The tail of a sweep cannot use the full pool: with fewer jobs
		// left than workers, the last wave's wall time is one per-job time,
		// not perJob/workers (the old formula's tail underestimate).
		width := p.workers
		if remaining < width {
			width = remaining
		}
		s.ETA = time.Duration(float64(perJob) * float64(remaining) * execRatio / float64(width))
	}
	return s
}

// String renders the snapshot as a single progress line.
func (s Snapshot) String() string {
	line := fmt.Sprintf("%d/%d done (%d run, %d cached, %d failed)",
		s.Done, s.Total, s.Executed, s.Cached, s.Failed)
	if s.JobsPerSec > 0 {
		line += fmt.Sprintf(", %.1f jobs/s", s.JobsPerSec)
	}
	if s.ETA > 0 {
		line += fmt.Sprintf(", eta %s", s.ETA.Round(time.Second))
	}
	return line
}
