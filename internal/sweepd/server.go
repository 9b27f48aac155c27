// Package sweepd is the long-running sweep service: an HTTP/JSON API
// over the experiment engine, so many concurrent clients share one
// machine's cores and one content-addressed result cache.
//
//	POST /api/v1/sweeps           submit a sweep.Spec, get a sweep id
//	GET  /api/v1/sweeps           list sweeps and their progress
//	GET  /api/v1/sweeps/{id}      status/progress of one sweep
//	GET  /api/v1/sweeps/{id}/events   SSE stream: per-job results + progress
//	GET  /api/v1/sweeps/{id}/results  accumulated results (json|csv|jsonl)
//	GET  /api/v1/results          index of stored scenario keys
//	GET  /api/v1/results/{key}    one store entry by scenario Spec.Key, served as stored
//	PUT  /api/v1/results/{key}    upload an entry (auth; remote workers)
//	POST /api/v1/leases           claim a job under a lease (auth)
//	POST /api/v1/leases/{id}/renew     heartbeat a lease (auth)
//	POST /api/v1/leases/{id}/complete  report a claimed job's result (auth)
//	GET  /api/v1/leases           outstanding job leases (ids redacted)
//	DELETE /api/v1/sweeps/{id}    cancel a queued/running sweep
//	GET  /healthz                 liveness probe
//
// Scenario names in a submitted spec are the registry's (`sfsweep
// -list`); validation failures come back as structured 400s carrying
// the scenario package's error values. A fair-share scheduler
// round-robins job claims across all queued sweeps, and every job runs
// through the same sweep.Execute path as the batch CLI, against the
// same result store -- a result served by the service is byte-identical
// to one computed by `sfsweep` for the same spec. Graceful drain
// (Server.Drain, wired to SIGTERM by cmd/sfsweepd) stops claiming, lets
// in-flight jobs finish and commit, and marks still-queued sweeps
// interrupted; because every finished point is stored, a restarted
// server resumes exactly like a re-run `sfsweep` does.
//
// The lease surface turns the server into a distributed work queue:
// sfworker processes claim jobs under TTL'd leases, execute through the
// identical sweep.Execute path against the server's store (reads via
// GET, writes via PUT), heartbeat renewals, and report completions. A
// worker that dies mid-job simply stops renewing; the expiry sweep
// requeues its job and another worker re-runs it to the same bytes.
// Mutating endpoints honour Config.Token as a bearer token.
//
// An entry read by key is sent as the bytes the store holds (Store.Raw)
// plus a newline, never decoded and re-encoded; an upload is refused
// unless its job hashes to the key it is put under, so every served
// document sits at its own scenario's content address. Every request is
// timed into the obs timer of the route it matched, "sweepd.route
// <pattern>" (or "sweepd.route unmatched"), whose count is the route's
// request count.
package sweepd

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"slimfly/internal/export"
	"slimfly/internal/obs"
	"slimfly/internal/scenario"
	"slimfly/internal/sweep"
)

var (
	obsRouteUnmatched  = obs.NewTimer("sweepd.route unmatched")
	obsSweepsSubmitted = obs.NewCounter("sweepd.sweeps_submitted")
	obsAuthFailures    = obs.NewCounter("sweepd.auth_failures")
	obsResultUploads   = obs.NewCounter("sweepd.result_uploads")
)

// maxSpecBytes bounds POST bodies; the largest legitimate specs (every
// axis enumerated) are a few KiB.
const maxSpecBytes = 1 << 20

// maxSweepJobs bounds the grid one submission may expand to. A body
// under maxSpecBytes can still name 60 000 loads and 60 000 seeds; the
// largest sweeps anyone runs (every paper figure at full resolution) are
// a few thousand points.
const maxSweepJobs = 100_000

// maxEntryBytes bounds uploaded result entries. Entries with full
// collector summaries run to a few hundred KiB; 16MiB leaves an order of
// magnitude of headroom without letting a stray client buffer the heap.
const maxEntryBytes = 16 << 20

// Config configures a Server.
type Config struct {
	// Store is the shared content-addressed result store. May be nil
	// (nothing is cached or resumable; useful in tests only). Assign a
	// typed pointer (e.g. *sweep.Cache) only when it is non-nil.
	Store sweep.Store
	// Workers is the local claim-loop width; 0 means one per available
	// core, negative means none -- a scheduling-only server whose jobs
	// all execute on remote sfworker processes.
	Workers int
	// Token, when non-empty, is required as "Authorization: Bearer
	// <token>" on every mutating endpoint (result uploads, the whole
	// lease surface). Reads stay open either way.
	Token string
	// LeaseSweep is how often expired job leases are requeued; 0 means
	// 1s. Expiry latency is at most TTL + LeaseSweep.
	LeaseSweep time.Duration
	// Debug, when true, mounts obs.DebugHandler (expvar + pprof) under
	// /debug/ on the same mux.
	Debug bool
}

// Server is the sweep service. It implements http.Handler; Start
// launches the workers and Drain performs the graceful shutdown.
// Submissions made before Start queue up and run once Start is called.
type Server struct {
	store sweep.Store
	env   *sweep.Env
	sched *scheduler
	mux   *http.ServeMux
	token string
	// routes holds each mux pattern's timer; ServeHTTP picks one by the
	// pattern the mux matched. Written only in New.
	routes map[string]*obs.Timer

	mu     sync.Mutex
	sweeps map[string]*sweepRun
	order  []*sweepRun
	nextID int
}

// New builds a Server. Call Start to begin executing submitted sweeps.
func New(cfg Config) *Server {
	env := sweep.NewEnv()
	s := &Server{
		store:  cfg.Store,
		env:    env,
		sched:  newScheduler(cfg.Workers, cfg.Store, env, cfg.LeaseSweep),
		mux:    http.NewServeMux(),
		token:  cfg.Token,
		routes: make(map[string]*obs.Timer),
		sweeps: make(map[string]*sweepRun),
	}
	s.handle("POST /api/v1/sweeps", s.handleSubmit)
	s.handle("GET /api/v1/sweeps", s.handleList)
	s.handle("GET /api/v1/sweeps/{id}", s.handleStatus)
	s.handle("DELETE /api/v1/sweeps/{id}", s.handleCancel)
	s.handle("GET /api/v1/sweeps/{id}/events", s.handleEvents)
	s.handle("GET /api/v1/sweeps/{id}/results", s.handleResults)
	s.handle("GET /api/v1/results", s.handleIndex)
	s.handle("GET /api/v1/results/{key}", s.handleEntry)
	s.handle("PUT /api/v1/results/{key}", s.auth(s.handlePutEntry))
	s.handle("POST /api/v1/leases", s.auth(s.handleLease))
	s.handle("POST /api/v1/leases/{id}/renew", s.auth(s.handleRenew))
	s.handle("POST /api/v1/leases/{id}/complete", s.auth(s.handleComplete))
	s.handle("GET /api/v1/leases", s.handleLeaseList)
	s.handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	if cfg.Debug {
		debug := obs.DebugHandler()
		// The debug tree is a mux of its own and would overwrite
		// r.Pattern, which ServeHTTP reads afterwards: hand it a copy.
		s.handle("/debug/", func(w http.ResponseWriter, r *http.Request) {
			debug.ServeHTTP(w, r.Clone(r.Context()))
		})
	}
	return s
}

// handle registers h on the mux under pattern, with the route's timer
// "sweepd.route <pattern>".
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	s.routes[pattern] = obs.NewTimer("sweepd.route " + pattern)
}

// auth gates a mutating handler behind the configured bearer token. With
// no token configured the server runs open (single-user localhost, the
// pre-existing behaviour); with one, a wrong or missing token is a 401
// before the handler sees the request.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.token != "" {
			got := r.Header.Get("Authorization")
			want := "Bearer " + s.token
			if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
				obsAuthFailures.Inc()
				writeError(w, http.StatusUnauthorized, "unauthorized",
					errors.New("sweepd: missing or wrong bearer token (server runs with -token)"))
				return
			}
		}
		h(w, r)
	}
}

// Start launches the scheduler's workers. Idempotent.
func (s *Server) Start() { s.sched.start() }

// Drain is the graceful shutdown: stop claiming, wait for in-flight
// jobs to finish and commit to the cache, then mark every non-terminal
// sweep interrupted and end its event stream. A cancelled ctx abandons
// the wait (in-flight simulations cannot be preempted) but still marks
// sweeps interrupted before returning ctx's error. The server keeps
// answering reads afterwards; new submissions get 503.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.sched.drain()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	runs := append([]*sweepRun(nil), s.order...)
	s.mu.Unlock()
	for _, r := range runs {
		r.terminate(StateInterrupted)
	}
	return err
}

// ServeHTTP implements http.Handler. The request's time goes to the
// timer of the route the mux matched, which the mux leaves in r.Pattern.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	t, ok := s.routes[r.Pattern]
	if !ok {
		t = obsRouteUnmatched
	}
	t.Observe(time.Since(start))
}

// apiError is the structured error body of every non-2xx response.
// Scenario registry failures are embedded whole, so a client sees the
// failing axis, the rejected name and the full list of valid names
// without parsing the message text.
type apiError struct {
	Error        string                      `json:"error"`
	Kind         string                      `json:"kind,omitempty"`
	Unknown      *scenario.UnknownError      `json:"unknown,omitempty"`
	Incompatible *scenario.IncompatibleError `json:"incompatible,omitempty"`
}

func writeError(w http.ResponseWriter, code int, kind string, err error) {
	ae := apiError{Error: err.Error(), Kind: kind}
	var ue *scenario.UnknownError
	var ie *scenario.IncompatibleError
	switch {
	case errors.As(err, &ue):
		ae.Kind = "unknown_name"
		ae.Unknown = ue
	case errors.As(err, &ie):
		ae.Kind = "incompatible"
		ae.Incompatible = ie
	}
	writeJSON(w, code, ae)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// handleSubmit accepts one sweep.Spec (a single JSON object, the same
// format `sfsweep -spec` reads), validates it against the scenario
// registries, expands it and queues it for fair-share execution.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := sweep.ParseSpec(io.LimitReader(r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", err)
		return
	}
	if gridSize(spec) > maxSweepJobs {
		writeError(w, http.StatusBadRequest, "too_many_jobs",
			fmt.Errorf("sweepd: spec %q spans more than %d grid points; split it into several sweeps", spec.Name, maxSweepJobs))
		return
	}
	jobs, err := spec.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_spec", err)
		return
	}

	s.mu.Lock()
	s.nextID++
	id := "sw-" + strconv.Itoa(s.nextID)
	run := newSweepRun(id, spec, jobs, s.sched.workers)
	s.sweeps[id] = run
	s.order = append(s.order, run)
	s.mu.Unlock()

	if !s.sched.submit(run) {
		run.terminate(StateInterrupted)
		writeError(w, http.StatusServiceUnavailable, "draining",
			errors.New("sweepd: server is draining; resubmit after restart (finished points are cached)"))
		return
	}
	obsSweepsSubmitted.Inc()
	writeJSON(w, http.StatusAccepted, run.status())
}

// gridSize is the product of the spec's axes, saturating just above
// maxSweepJobs: an upper bound on what Expand returns (it skips
// incompatible topology/algorithm pairs) that costs nothing to compute.
func gridSize(spec *sweep.Spec) int64 {
	n := int64(1)
	for _, axis := range []int{
		len(spec.Topos), max(1, len(spec.Patterns)), len(spec.Algos), len(spec.Loads), max(1, len(spec.Seeds)),
	} {
		// n <= maxSweepJobs and axis < maxSpecBytes: no overflow.
		if n *= int64(axis); n > maxSweepJobs {
			return maxSweepJobs + 1
		}
	}
	return n
}

func (s *Server) lookup(id string) (*sweepRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.sweeps[id]
	return r, ok
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := append([]*sweepRun(nil), s.order...)
	s.mu.Unlock()
	out := struct {
		Sweeps []Status `json:"sweeps"`
	}{Sweeps: make([]Status, 0, len(runs))}
	for _, r := range runs {
		out.Sweeps = append(out.Sweeps, r.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("sweepd: no sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, run.status())
}

// handleCancel removes a sweep from the rotation. Unclaimed jobs never
// run; in-flight ones finish (and cache) but the sweep is terminal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("sweepd: no sweep %q", r.PathValue("id")))
		return
	}
	s.sched.remove(run)
	run.terminate(StateCancelled)
	writeJSON(w, http.StatusOK, run.status())
}

// handleEvents streams the sweep's ordered event log as Server-Sent
// Events: the full replay first (a late subscriber misses nothing),
// then live events until the sweep reaches a terminal state or the
// client goes away. Event ids are the per-sweep sequence numbers.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("sweepd: no sweep %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "no_flush",
			errors.New("sweepd: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := run.hub.subscribe()
	defer cancel()
	for _, ev := range replay {
		if err := ev.writeSSE(w); err != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return // terminal state reached (or subscriber dropped)
			}
			if err := ev.writeSSE(w); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleResults serves the results accumulated so far (all of them,
// once the sweep is done) in deterministic job order. ?format=csv
// streams the same CSV rows `sfsweep` writes to results.csv -- for a
// completed sweep the bytes are identical; ?format=jsonl streams one
// result per line; the default JSON body is the sfsweep results.json
// artifact shape (spec, stats, results).
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("sweepd: no sweep %q", r.PathValue("id")))
		return
	}
	results, stats := run.finishedResults()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, export.SweepArtifact{Spec: run.spec, Stats: stats, Results: results})
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		st, err := export.NewSweepCSVStream(w)
		if err != nil {
			return // header write failed: client gone
		}
		for _, jr := range results {
			if err := st.Write(jr); err != nil {
				return
			}
		}
		st.Flush()
	case "jsonl":
		w.Header().Set("Content-Type", "application/jsonl")
		st := export.NewSweepJSONLStream(w)
		for _, jr := range results {
			if err := st.Write(jr); err != nil {
				return
			}
		}
	default:
		writeError(w, http.StatusBadRequest, "bad_format",
			fmt.Errorf("sweepd: unknown format %q (json, csv, jsonl)", format))
	}
}

// handleIndex streams the cache's key index. The body is emitted
// incrementally from Cache.Keys, so listing a huge cache never builds
// the key set in memory; a walk error truncates the list and surfaces
// in the trailing "error" field.
func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no_cache", errors.New("sweepd: server runs without a result store"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, `{"keys":[`)
	n := 0
	var walkErr error
	for key, err := range s.store.Keys() {
		if err != nil {
			walkErr = err
			break
		}
		if n > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "%q", key)
		n++
	}
	fmt.Fprintf(w, `],"count":%d`, n)
	if walkErr != nil {
		b, _ := json.Marshal(walkErr.Error())
		fmt.Fprintf(w, `,"error":%s`, b)
	}
	io.WriteString(w, "}\n")
}

// handleEntry serves one cache entry by scenario Spec.Key: the
// cross-client deduplication surface. A client that knows a scenario's
// key (Spec.Key is a documented stable hash) fetches the shared result
// without submitting a sweep at all. The body is the stored document
// (Store.Raw) plus a newline -- for every entry Put wrote, the bytes an
// indented encoding of the decoded entry would give, at the cost of one
// file read. The length is known up front, so the reply is never
// chunked, whatever the entry's size.
func (s *Server) handleEntry(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no_cache", errors.New("sweepd: server runs without a result store"))
		return
	}
	key := r.PathValue("key")
	if !validKey(key) {
		writeError(w, http.StatusBadRequest, "bad_key",
			fmt.Errorf("sweepd: %q is not a scenario key (64 hex digits)", key))
		return
	}
	data, ok := s.store.Raw(key)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("sweepd: no cached result for %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	// A failed write means the client is gone; there is no one to tell.
	w.Write(data)
	io.WriteString(w, "\n")
}

// handlePutEntry stores an uploaded result entry: the write half of the
// shared store, used by remote workers (their Execute runs with a
// RemoteStore, so the entry lands here the moment the simulation ends).
// The body is the same Entry JSON the GET side serves, and its job must
// hash to key: an entry uploaded under another scenario's content
// address would be served there verbatim, so it is a 400 key_mismatch.
func (s *Server) handlePutEntry(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no_cache", errors.New("sweepd: server runs without a result store"))
		return
	}
	key := r.PathValue("key")
	if !validKey(key) {
		writeError(w, http.StatusBadRequest, "bad_key",
			fmt.Errorf("sweepd: %q is not a scenario key (64 hex digits)", key))
		return
	}
	var e sweep.Entry
	if err := json.NewDecoder(io.LimitReader(r.Body, maxEntryBytes)).Decode(&e); err != nil {
		writeError(w, http.StatusBadRequest, "bad_entry", fmt.Errorf("sweepd: decoding entry: %w", err))
		return
	}
	if got := e.Job.Key(); got != key {
		writeError(w, http.StatusBadRequest, "key_mismatch",
			fmt.Errorf("sweepd: the entry's job hashes to %s, not to %s", got, key))
		return
	}
	if err := s.store.Put(key, e); err != nil {
		var ke *sweep.KeyError
		if errors.As(err, &ke) {
			writeError(w, http.StatusBadRequest, "bad_key", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "store_error", err)
		return
	}
	obsResultUploads.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleLease is the job claim against the fair-share scheduler: the
// grant carries the job itself plus a TTL'd lease the worker must
// heartbeat. Unknown fields are refused: a request this endpoint cannot
// honour is a 400, never a job the client did not ask for.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req sweep.LeaseRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_lease", fmt.Errorf("sweepd: decoding lease request: %w", err))
		return
	}
	ttl := clampTTL(time.Duration(req.TTLSeconds * float64(time.Second)))
	grant, ok, draining := s.sched.lease(req.Owner, ttl)
	switch {
	case draining:
		writeError(w, http.StatusServiceUnavailable, "draining",
			errors.New("sweepd: server is draining; no new claims"))
	case !ok:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusCreated, grant)
	}
}

// handleRenew heartbeats a job lease. 410 means the lease is gone and
// its job has been requeued.
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req sweep.RenewRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_lease", fmt.Errorf("sweepd: decoding renew request: %w", err))
		return
	}
	id := r.PathValue("id")
	l, err := s.sched.renew(id, clampTTL(time.Duration(req.TTLSeconds*float64(time.Second))))
	if err != nil {
		writeError(w, http.StatusGone, "lease_lost",
			fmt.Errorf("sweepd: lease %s expired or was never granted", id))
		return
	}
	writeJSON(w, http.StatusOK, sweep.LeaseGrant{Lease: l})
}

// handleComplete records a claimed job's outcome and drops its lease.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var jr sweep.JobResult
	if err := json.NewDecoder(io.LimitReader(r.Body, maxEntryBytes)).Decode(&jr); err != nil {
		writeError(w, http.StatusBadRequest, "bad_result", fmt.Errorf("sweepd: decoding job result: %w", err))
		return
	}
	id := r.PathValue("id")
	switch err := s.sched.complete(id, jr); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, sweep.ErrLeaseLost):
		writeError(w, http.StatusGone, "lease_lost",
			fmt.Errorf("sweepd: lease %s expired and its job was requeued", id))
	default:
		writeError(w, http.StatusBadRequest, "bad_result", err)
	}
}

// handleLeaseList reports the outstanding job leases (who is working on
// what, and when each claim lapses). Lease ids are capabilities and are
// redacted; the endpoint is read-only observability.
func (s *Server) handleLeaseList(w http.ResponseWriter, _ *http.Request) {
	leases := s.sched.leaseList()
	writeJSON(w, http.StatusOK, struct {
		Leases []sweep.Lease `json:"leases"`
		Count  int           `json:"count"`
	}{Leases: leases, Count: len(leases)})
}

// validKey reports whether key has the exact shape of a scenario
// Spec.Key (hex SHA-256). Anything else is rejected before it can reach
// the store layer. (Delegates to the store package's canonical check.)
func validKey(key string) bool { return sweep.ValidKey(key) }
