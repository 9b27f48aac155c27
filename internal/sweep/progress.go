package sweep

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a sweep's ledger: it counts claims (JobStarted,
// JobAbandoned, on an atomic counter, so a claim takes no lock here) and
// records each finished job once, by index, under one mutex (Finish, the
// only place a result is classified as failed, cached or executed). Every
// count and result a caller reads comes from it. RunJobs keeps one per
// sweep (Options.Progress, or its own), sfsweepd one per submitted sweep.
// The ETA divides the average execution time of the jobs simulated so far
// across the effective parallelism (cache hits are free).
type Progress struct {
	workers int
	start   time.Time
	started atomic.Int64 // claims not abandoned

	mu      sync.Mutex
	results []JobResult // positional: results[i] is job i's, once reached[i]
	reached []bool
	st      Stats // Skipped is left 0 here; Stats derives it
	execNS  int64 // summed execution time of executed jobs
}

// NewProgress returns the ledger of a sweep of total jobs on workers workers.
func NewProgress(total, workers int) *Progress {
	return &Progress{
		workers: max(workers, 1),
		start:   time.Now(),
		results: make([]JobResult, total),
		reached: make([]bool, total),
		st:      Stats{Total: total},
	}
}

// JobStarted marks one job claimed by a worker; until its Finish, the job
// counts as in flight.
func (p *Progress) JobStarted() { p.started.Add(1) }

// JobAbandoned undoes one JobStarted whose claim evaporated without a
// finished job (a remote worker's lease expired and its job was requeued),
// so a requeue leaves no phantom in-flight job behind.
func (p *Progress) JobAbandoned() { p.started.Add(-1) }

// Finish records job idx's result and reports whether it was the first
// for idx. A second one (a lease that expired right at the completion
// boundary, its job re-run) returns false and changes nothing: both are
// byte-identical by construction, and every count moves exactly once.
func (p *Progress) Finish(idx int, jr JobResult) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.reached[idx] {
		return false
	}
	p.results[idx], p.reached[idx] = jr, true
	switch {
	case jr.Err != "":
		p.st.Failed++
	case jr.Cached:
		p.st.Cached++
	default:
		p.st.Executed++
		p.execNS += int64(jr.Elapsed * float64(time.Second))
	}
	if jr.StoreErr != "" {
		p.st.PutErrors++
		p.st.FirstStoreErr = cmp.Or(p.st.FirstStoreErr, jr.StoreErr)
	}
	return true
}

// Results returns a copy of the positional results: entry i is job i's,
// the zero JobResult for a job not finished.
func (p *Progress) Results() []JobResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.results)
}

// Finished returns the finished results in job order (the order every
// artifact uses) and the Stats they tally to, read together.
func (p *Progress) Finished() ([]JobResult, Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.statsLocked()
	out := make([]JobResult, 0, st.Total-st.Skipped)
	for i, ok := range p.reached {
		if ok {
			out = append(out, p.results[i])
		}
	}
	return out, st
}

// Stats returns the sweep's tally; every job not finished counts as
// skipped.
func (p *Progress) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statsLocked()
}

// statsLocked is Stats for a caller holding p.mu.
func (p *Progress) statsLocked() Stats {
	st := p.st
	st.Skipped = st.Total - st.Executed - st.Cached - st.Failed
	return st
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
	InFlight   int           `json:"in_flight"` // claimed but unfinished
	Elapsed    time.Duration `json:"elapsed_ns"`
	ETA        time.Duration `json:"eta_ns"`       // 0 when unknown or finished
	JobsPerSec float64       `json:"jobs_per_sec"` // finished jobs per wall-clock second
}

// Snapshot returns the current counters, rate and ETA. Claims are counted
// outside the lock, so they are read before it: a job finished in between
// counts as done and not in flight, and InFlight never exceeds the claims
// outstanding when Snapshot began.
func (p *Progress) Snapshot() Snapshot {
	started := int(p.started.Load())
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.statsLocked()
	s := Snapshot{
		Total:    st.Total,
		Done:     st.Total - st.Skipped,
		Cached:   st.Cached,
		Failed:   st.Failed,
		Executed: st.Executed,
		Elapsed:  time.Since(p.start),
	}
	s.InFlight = max(started-s.Done, 0)
	if s.Done > 0 && s.Elapsed > 0 {
		s.JobsPerSec = float64(s.Done) / s.Elapsed.Seconds()
	}
	remaining := s.Total - s.Done
	if remaining > 0 && s.Executed > 0 {
		perJob := time.Duration(p.execNS / int64(s.Executed))
		// Cache hits are near-free, so scale the remaining count by the
		// observed execution ratio: resuming a mostly cached sweep should
		// not forecast full-cost work for points that will be served from
		// disk.
		execRatio := float64(s.Executed) / float64(s.Done)
		// The tail of a sweep cannot use the full pool: with fewer jobs
		// left than workers, the last wave's wall time is one per-job time,
		// not perJob/workers (the old formula's tail underestimate).
		width := min(p.workers, remaining)
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
