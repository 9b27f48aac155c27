package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strings"
	"time"

	"slimfly/internal/obs"
)

var (
	obsRemoteRetries = obs.NewCounter("sweep.store.remote_retries") // transient failures retried with backoff
	obsRemoteErrors  = obs.NewCounter("sweep.store.remote_errors")  // requests that failed after all retries
)

// RemoteStore is the Store backend that speaks HTTP/JSON to a running
// sfsweepd: reads come from GET /api/v1/results/{key}, which serves the
// stored document as it is (Raw; Get decodes it once), and writes go to
// the token-authenticated PUT side, which refuses an entry whose job
// does not hash to the key it is put under. Because sfsweepd's local
// store uses the same Entry encoding and the same Spec.Key addresses, a
// RemoteStore handed to Execute behaves exactly like a shared cache
// directory -- except it works across machines. It is also the
// job-claim client of the same server (ClaimJob, RenewJob, CompleteJob
// over the /api/v1/leases endpoints), which is what Work drives.
//
// Transient failures (network errors, 5xx) are retried with exponential
// backoff before giving up: a worker fleet must ride out a server
// restart without degrading every job to a permanent recompute. Definite
// answers (404, 400, 401) are never retried.
type RemoteStore struct {
	base  string
	token string
	hc    *http.Client

	// Retries is the number of additional attempts after the first for
	// transient failures; Backoff is the initial sleep between attempts,
	// doubled each retry. The OpenRemote defaults (3, 250ms) ride out a
	// several-second server blip.
	Retries int
	Backoff time.Duration
}

// RemoteStore implements the Store contract.
var _ Store = (*RemoteStore)(nil)

// OpenRemote returns a RemoteStore for the sfsweepd at baseURL (e.g.
// "http://sweephost:8080"). token is sent as a bearer token on every
// request; it must match the server's -token (empty if the server runs
// open).
func OpenRemote(baseURL, token string) *RemoteStore {
	return &RemoteStore{
		base:    strings.TrimRight(baseURL, "/"),
		token:   token,
		hc:      &http.Client{Timeout: 60 * time.Second},
		Retries: 3,
		Backoff: 250 * time.Millisecond,
	}
}

// URL returns the server base URL the store talks to.
func (r *RemoteStore) URL() string { return r.base }

// transientError marks a failure worth retrying (network error or 5xx).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// do performs one HTTP exchange with retry/backoff on transient
// failures. body is re-sent from the byte slice on every attempt. A
// non-nil out is filled from a 2xx body: decoded from JSON, or verbatim
// when out is a *[]byte. The returned status is the
// final attempt's (0 if no attempt got a response).
func (r *RemoteStore) do(method, path string, body []byte, out any) (int, error) {
	backoff := r.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, err := r.once(method, path, body, out)
		var te *transientError
		if err == nil || !errors.As(err, &te) {
			return status, err
		}
		lastErr = err
		if attempt >= r.Retries {
			obsRemoteErrors.Inc()
			return status, fmt.Errorf("sweep: remote store %s %s: %w", method, path, lastErr)
		}
		obsRemoteRetries.Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}

func (r *RemoteStore) once(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, &transientError{err}
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode >= 500 {
		return resp.StatusCode, &transientError{fmt.Errorf("server status %d", resp.StatusCode)}
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 || out == nil || resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return resp.StatusCode, &transientError{fmt.Errorf("reading response: %w", err)}
	}
	return resp.StatusCode, nil
}

// apiErr extracts the server's structured error text for status.
func apiErr(status int, path string) error {
	return fmt.Errorf("sweep: remote store: %s returned status %d", path, status)
}

// Get fetches the entry for key: Raw, then one decode. Misses, malformed
// keys and exhausted transports all report (zero, false) -- a miss only
// costs one recomputation, matching the local Cache's contract.
func (r *RemoteStore) Get(key string) (Entry, bool) {
	data, ok := r.Raw(key)
	if !ok {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, false
	}
	return e, true
}

// Raw fetches the stored document for key: the server sends the
// entry's bytes plus a newline, which Raw trims. The document must pass
// the same shape check the local Cache applies (isStored), so a server
// that answers with anything else is a miss.
func (r *RemoteStore) Raw(key string) ([]byte, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	var data []byte
	status, err := r.do(http.MethodGet, "/api/v1/results/"+key, nil, &data)
	if err != nil || status != http.StatusOK {
		return nil, false
	}
	data = bytes.TrimSuffix(data, []byte("\n"))
	if !isStored(data) {
		return nil, false
	}
	return data, true
}

// Has probes for key with a HEAD request (the GET route answers it
// body-free).
func (r *RemoteStore) Has(key string) bool {
	if !ValidKey(key) {
		return false
	}
	status, err := r.do(http.MethodHead, "/api/v1/results/"+key, nil, nil)
	return err == nil && status == http.StatusOK
}

// Put uploads entry under key. Authentication failures and rejections
// are definite errors; transport failures surface after the retry
// budget, so a read-only server or a dead network degrades loudly (the
// caller records it as JobResult.StoreErr), not silently.
func (r *RemoteStore) Put(key string, e Entry) error {
	if !ValidKey(key) {
		return &KeyError{Key: key}
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("sweep: encoding entry: %w", err)
	}
	status, err := r.do(http.MethodPut, "/api/v1/results/"+key, data, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusCreated && status != http.StatusNoContent {
		return apiErr(status, "PUT /api/v1/results/"+key)
	}
	return nil
}

// Keys lists the server's key index. The index body is decoded whole
// (the server streams it, but the client contract is an iterator either
// way); a truncated walk on the server side surfaces as the trailing
// error, exactly like a local walk error.
func (r *RemoteStore) Keys() iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		var idx struct {
			Keys  []string `json:"keys"`
			Error string   `json:"error"`
		}
		status, err := r.do(http.MethodGet, "/api/v1/results", nil, &idx)
		if err != nil {
			yield("", err)
			return
		}
		if status != http.StatusOK {
			yield("", apiErr(status, "GET /api/v1/results"))
			return
		}
		for _, k := range idx.Keys {
			if !yield(k, nil) {
				return
			}
		}
		if idx.Error != "" {
			yield("", errors.New("sweep: remote store index: "+idx.Error))
		}
	}
}

// ClaimJob asks the server's fair-share Queue for the next unclaimed
// job across all queued sweeps, leased to owner for ttl. ok=false with a
// nil error means no work right now (poll again); ErrDraining means the
// server is shutting down.
func (r *RemoteStore) ClaimJob(owner string, ttl time.Duration) (LeaseGrant, bool, error) {
	body, _ := json.Marshal(LeaseRequest{Owner: owner, TTLSeconds: ttl.Seconds()})
	var grant LeaseGrant
	status, err := r.do(http.MethodPost, "/api/v1/leases", body, &grant)
	if err != nil {
		return LeaseGrant{}, false, err
	}
	switch status {
	case http.StatusOK, http.StatusCreated:
		if grant.Job == nil {
			return LeaseGrant{}, false, errors.New("sweep: claim grant carries no job")
		}
		// The lease key came off the wire; the job's own content address
		// is the only value it may hold (and that makes it 64 hex digits,
		// which Work's log lines abbreviate).
		if grant.Lease.Key != grant.Job.Key() {
			return LeaseGrant{}, false, fmt.Errorf("sweep: claim grant's lease key %q is not its job's key", grant.Lease.Key)
		}
		return grant, true, nil
	case http.StatusNoContent:
		return LeaseGrant{}, false, nil
	case http.StatusServiceUnavailable:
		return LeaseGrant{}, false, ErrDraining
	case http.StatusUnauthorized, http.StatusForbidden:
		return LeaseGrant{}, false, fmt.Errorf("sweep: claim rejected (status %d): check -token", status)
	default:
		return LeaseGrant{}, false, apiErr(status, "POST /api/v1/leases")
	}
}

// RenewJob extends the job lease leaseID by ttl from now. ErrLeaseLost
// means it expired and the job was requeued.
func (r *RemoteStore) RenewJob(leaseID string, ttl time.Duration) (Lease, error) {
	body, _ := json.Marshal(RenewRequest{TTLSeconds: ttl.Seconds()})
	var grant LeaseGrant
	status, err := r.do(http.MethodPost, "/api/v1/leases/"+url.PathEscape(leaseID)+"/renew", body, &grant)
	if err != nil {
		return Lease{}, err
	}
	switch status {
	case http.StatusOK:
		return grant.Lease, nil
	case http.StatusGone, http.StatusNotFound:
		return Lease{}, ErrLeaseLost
	default:
		return Lease{}, apiErr(status, "POST /api/v1/leases/{id}/renew")
	}
}

// CompleteJob reports the outcome of a claimed job (success or failure)
// and ends its lease. ErrLeaseLost means the lease expired and the
// job was requeued -- the result, if any, is already in the store via
// Put, so the re-run will be a cache hit and nothing is lost.
func (r *RemoteStore) CompleteJob(leaseID string, jr JobResult) error {
	body, err := json.Marshal(jr)
	if err != nil {
		return fmt.Errorf("sweep: encoding job result: %w", err)
	}
	status, err := r.do(http.MethodPost, "/api/v1/leases/"+url.PathEscape(leaseID)+"/complete", body, nil)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK, http.StatusNoContent:
		return nil
	case http.StatusGone, http.StatusNotFound:
		return ErrLeaseLost
	default:
		return apiErr(status, "POST /api/v1/leases/{id}/complete")
	}
}
