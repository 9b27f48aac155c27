package sweepd

import (
	"sync"
	"time"

	"slimfly/internal/obs"
	"slimfly/internal/sweep"
)

var obsSweepsActive = obs.NewGauge("sweepd.sweeps_active")

// State is a sweep's lifecycle position.
type State string

// The sweep states. Queued and Running sweeps hold or will receive
// claims; the other three are terminal. Interrupted is the drain
// outcome: every finished point is in the shared cache, so resubmitting
// the same spec to a restarted server (or running `sfsweep` against the
// same cache directory) completes the sweep without re-executing them.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateInterrupted State = "interrupted"
	StateCancelled   State = "cancelled"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateInterrupted || s == StateCancelled
}

// Status is the wire form of one sweep's current position: returned by
// the status and list endpoints and published as the payload of "state"
// and "done" events.
type Status struct {
	ID       string         `json:"id"`
	Name     string         `json:"name"`
	State    State          `json:"state"`
	Jobs     int            `json:"jobs"`
	Progress sweep.Snapshot `json:"progress"`
	Created  time.Time      `json:"created"`
	Finished *time.Time     `json:"finished,omitempty"`
}

// resultEvent is the payload of "result" events: the job's position in
// the deterministic expansion plus its full outcome.
type resultEvent struct {
	Index  int             `json:"index"`
	Result sweep.JobResult `json:"result"`
}

// sweepRun is one submitted sweep and the Sink of its batch in the
// server's sweep.Queue. Its fields below mu are guarded by mu; the
// ledger's and the hub's mutexes are leaves below it.
type sweepRun struct {
	id      string
	spec    *sweep.Spec
	created time.Time
	batch   sweep.Batch // the jobs in expansion order, as the queue holds them

	mu         sync.Mutex
	state      State
	finishedAt *time.Time
	prog       *sweep.Progress // the sweep's ledger: claims, results, counts
	hub        *hub
}

func newSweepRun(id string, spec *sweep.Spec, jobs []sweep.Job, workers int) *sweepRun {
	r := &sweepRun{
		id: id, spec: spec, created: time.Now().UTC(),
		state: StateQueued,
		prog:  sweep.NewProgress(len(jobs), workers),
		hub:   newHub(),
	}
	r.batch = sweep.Batch{Jobs: jobs, Sink: r}
	obsSweepsActive.Add(1)
	r.hub.publish("state", r.status())
	return r
}

// status snapshots the run for the API.
func (r *sweepRun) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

func (r *sweepRun) statusLocked() Status {
	return Status{
		ID: r.id, Name: r.spec.Name, State: r.state, Jobs: len(r.batch.Jobs),
		Progress: r.prog.Snapshot(), Created: r.created, Finished: r.finishedAt,
	}
}

// Claimed records one claim: the first flips the sweep to running.
func (r *sweepRun) Claimed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prog.JobStarted()
	if r.state == StateQueued {
		r.state = StateRunning
		r.hub.publish("state", r.statusLocked())
	}
}

// terminated reports whether the run reached a terminal state.
func (r *sweepRun) terminated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.terminal()
}

// abandon undoes one Claimed whose claim evaporated without a
// result: a remote worker's lease expired and the job went back in the
// queue. The matching re-claim will call Claimed again, so the
// in-flight count stays honest across requeues.
func (r *sweepRun) abandon() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prog.JobAbandoned()
	r.hub.publish("progress", r.prog.Snapshot())
}

// Finish records one completed job in the ledger, publishes its result
// and progress events, and closes out the sweep when it was the last job.
// The ledger refuses a duplicate completion for the same index (a lease
// that expired at the completion boundary, its job re-run): no event.
func (r *sweepRun) Finish(idx int, jr sweep.JobResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.prog.Finish(idx, jr) {
		return
	}
	r.hub.publish("result", resultEvent{Index: idx, Result: jr})
	snap := r.prog.Snapshot()
	r.hub.publish("progress", snap)
	if snap.Done == snap.Total && r.state == StateRunning {
		r.setTerminalLocked(StateDone, "done")
	}
}

// terminate moves the run to a terminal state (interrupted on drain,
// cancelled on DELETE) and ends its event stream. In-flight jobs may
// still call Finish afterwards; their results are recorded (and, for
// drain, were already committed to the cache by Execute) but the state
// no longer changes. No-op on already terminal runs.
func (r *sweepRun) terminate(to State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.state.terminal() {
		r.setTerminalLocked(to, "state")
	}
}

// setTerminalLocked performs the shared terminal bookkeeping: state,
// finish time, the closing event (kind "done" for completion, "state"
// otherwise) and the end of the event stream. Caller holds r.mu.
func (r *sweepRun) setTerminalLocked(to State, eventKind string) {
	r.state = to
	now := time.Now().UTC()
	r.finishedAt = &now
	obsSweepsActive.Add(-1)
	r.hub.publish(eventKind, r.statusLocked())
	r.hub.close()
}
