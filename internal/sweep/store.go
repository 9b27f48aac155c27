package sweep

import (
	"errors"
	"fmt"
	"iter"
	"time"
)

// Store is the result-store surface the sweep engine runs against: a
// content-addressed map from scenario Spec.Key to Entry. Cache is the
// local directory-backed default; RemoteStore speaks the same contract
// to a running sfsweepd, so a worker fleet shares one result set.
// Results are location-invariant by construction (worker counts and
// routing backends are excluded from Spec.Key), which is what makes the
// two backends interchangeable: an entry computed anywhere is
// byte-identical to one computed here. Dividing a sweep's points
// between workers is not the store's business: the pool and sfsweepd's
// job leases do that.
//
// Every implementation must validate key shape at this boundary: a key
// that is not 64 hex digits (ValidKey) is a miss for Get/Raw, a
// *KeyError for Put, and never reaches the filesystem or the network
// path component.
type Store interface {
	// Get looks up key: (entry, true) on a hit, (zero, false) on a miss.
	// Corrupt or unreachable entries are misses, never errors -- a miss
	// only costs one recomputation.
	Get(key string) (Entry, bool)
	// Raw looks up key like Get but returns the entry's stored JSON
	// document undecoded: the indented encoding Put writes, which is
	// what sfsweepd serves for GET /api/v1/results/{key}. A document not
	// shaped like Put's output is a miss, even where Get would decode it.
	Raw(key string) ([]byte, bool)
	// Put stores entry under key. Failures are real errors (a full disk,
	// an unreachable server): the caller decides whether to surface or
	// tolerate them.
	Put(key string, e Entry) error
	// Keys iterates every stored key. A walk/transport error is yielded
	// once with an empty key and ends the iteration.
	Keys() iter.Seq2[string, error]
}

// Lease is one live job claim granted by sfsweepd: the ID is the proof
// of ownership (renewals and the completion must present it), Key is
// the claimed job's Spec.Key, Expires is the moment the claim lapses
// unless renewed. A holder that stops heartbeating -- a SIGKILLed
// worker -- simply lets Expires pass and the job is requeued: no
// recovery protocol, just a clock.
type Lease struct {
	ID      string    `json:"id"`
	Key     string    `json:"key"`
	Owner   string    `json:"owner"`
	Expires time.Time `json:"expires"`
}

// Job-claim errors, translated from sfsweepd's status codes so callers
// can errors.Is on them.
var (
	// ErrLeaseLost: the presented lease no longer exists: it expired
	// and its job was requeued, or the job was already completed.
	ErrLeaseLost = errors.New("sweep: lease lost")
	// ErrDraining: the claim source -- a Queue, or the sfsweepd behind a
	// RemoteStore -- is shutting down and grants no new claims; finished
	// points are cached, so retry after its restart.
	ErrDraining = errors.New("sweep: server is draining")
)

// KeyError is the structured Put failure for a malformed key.
// Short, long or non-hex keys used to panic the cache's path fan-out
// (key[:2]); now they fail shaped like this at the Store boundary.
type KeyError struct {
	Key string `json:"key"`
}

func (e *KeyError) Error() string {
	return fmt.Sprintf("sweep: %q is not a result key (want 64 hex digits)", e.Key)
}

// ValidKey reports whether key has the exact shape of a scenario
// Spec.Key: 64 lowercase hex digits (a SHA-256). Everything the Store
// surface does with a key -- path fan-out, index listing, URL routing --
// assumes this shape, so every entry point checks it first.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// --- job-lease wire types ---------------------------------------------
//
// These structs are the bodies of sfsweepd's /api/v1/leases endpoints;
// they live here (not in sweepd) so the RemoteStore client and the
// server marshal the same shapes by construction.

// LeaseRequest is the body of POST /api/v1/leases, a job claim: the
// server's fair-share Queue picks the next unclaimed job across all
// queued sweeps and returns it under a lease.
type LeaseRequest struct {
	Owner      string  `json:"owner"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// LeaseGrant is the body of a granted claim (Job, SweepID and Index
// say which job) and of a renewal (Lease only).
type LeaseGrant struct {
	Lease   Lease  `json:"lease"`
	Job     *Job   `json:"job,omitempty"`
	SweepID string `json:"sweep_id,omitempty"`
	Index   int    `json:"index,omitempty"`
}

// RenewRequest is the body of POST /api/v1/leases/{id}/renew.
type RenewRequest struct {
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}
