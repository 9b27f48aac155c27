package sweepd

// Tests for the distributed half of the service: the remote Store
// backend (run through the same conformance suite as the local one), the
// bearer-token gate, and the job-lease lifecycle -- claim, heartbeat,
// complete, expiry-requeue, and the kill-a-worker-mid-lease recovery
// path with its byte-identical re-execution guarantee.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"slimfly/internal/sim"
	"slimfly/internal/sweep"
	"slimfly/internal/sweep/storetest"
)

// newRemoteHarness starts a token-guarded server over a fresh cache dir
// and returns its pieces. workers<0 keeps all execution remote.
func newRemoteHarness(t *testing.T, cfg Config) (*sweep.Cache, *Server, *httptest.Server, *sweep.RemoteStore) {
	t.Helper()
	dir := t.TempDir()
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = cache
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return cache, srv, ts, sweep.OpenRemote(ts.URL, cfg.Token)
}

// TestRemoteStoreConformance runs the identical Store suite the local
// Cache passes, through a live server: every contract point -- key
// validation, corrupt entries, foreign files, concurrent writers -- must
// survive the HTTP round trip.
func TestRemoteStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Backend{
		OpenDir: func(t *testing.T) (sweep.Store, string) {
			dir := t.TempDir()
			cache, err := sweep.OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(Config{Store: cache, Workers: -1, Token: "conformance-token"})
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			return sweep.OpenRemote(ts.URL, "conformance-token"), dir
		},
	})
}

// TestTokenAuth: with -token set, mutating endpoints reject missing and
// wrong tokens with 401 while reads stay open.
func TestTokenAuth(t *testing.T) {
	cache, _, ts, good := newRemoteHarness(t, Config{Workers: -1, Token: "s3cret"})
	job := sweep.Job{Topo: sweep.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.07, Seed: 1}
	key := job.Key()
	if err := good.Put(key, sweep.Entry{Job: job, Result: sim.Result{Delivered: 7}}); err != nil {
		t.Fatalf("authenticated Put: %v", err)
	}
	if _, ok := cache.Get(key); !ok {
		t.Fatal("authenticated Put did not land in the server's store")
	}

	for _, bad := range []*sweep.RemoteStore{
		sweep.OpenRemote(ts.URL, ""),      // missing token
		sweep.OpenRemote(ts.URL, "wrong"), // wrong token
	} {
		if err := bad.Put(storetest.Key(2), sweep.Entry{}); err == nil {
			t.Fatal("unauthenticated Put succeeded")
		}
		if _, _, err := bad.ClaimJob("w", time.Minute); err == nil {
			t.Fatal("unauthenticated claim succeeded")
		}
		// Reads stay open: the unauthenticated client still gets hits.
		if _, ok := bad.Get(key); !ok {
			t.Fatal("unauthenticated Get missed a stored entry")
		}
	}

	// The 401 body is the structured error shape.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/results/"+key, bytes.NewReader([]byte("{}")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless PUT: status %d, want 401", resp.StatusCode)
	}
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Kind != "unauthorized" {
		t.Fatalf("401 body: %+v (%v)", ae, err)
	}
}

// executeGrant runs a claimed job exactly as sfworker does: through
// sweep.Execute with the remote store, then CompleteJob.
func executeGrant(t *testing.T, rs *sweep.RemoteStore, env *sweep.Env, grant sweep.LeaseGrant) sweep.JobResult {
	t.Helper()
	job := *grant.Job
	task := sweep.Task{Job: job, Key: job.Key(), Build: func() (sim.Config, error) { return env.Config(job) }}
	jr := sweep.Execute(task, rs, 0)
	if jr.Err != "" {
		t.Fatalf("job failed: %s", jr.Err)
	}
	return jr
}

// TestJobLeaseLifecycle walks the happy path a worker follows: claim,
// renew, execute against the remote store, complete -- until the queue
// is dry and the sweep is done, with every result in the server's store.
func TestJobLeaseLifecycle(t *testing.T) {
	cache, srv, ts, rs := newRemoteHarness(t, Config{Workers: -1, Token: "tok"})
	srv.Start()
	st := postSpecAuth(t, ts, specJSON("dist", 2))
	env := sweep.NewEnv()

	keys := map[string]bool{}
	for i := 0; i < 2; i++ {
		grant, ok, err := rs.ClaimJob("w1", time.Minute)
		if err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		if grant.SweepID != st.ID {
			t.Fatalf("grant names sweep %s, want %s", grant.SweepID, st.ID)
		}
		if grant.Lease.Key != grant.Job.Key() {
			t.Fatalf("lease key %s does not match job key %s", grant.Lease.Key, grant.Job.Key())
		}
		renewed, err := rs.RenewJob(grant.Lease.ID, time.Minute)
		if err != nil || renewed.ID != grant.Lease.ID {
			t.Fatalf("renew: %+v, %v", renewed, err)
		}
		jr := executeGrant(t, rs, env, grant)
		if err := rs.CompleteJob(grant.Lease.ID, jr); err != nil {
			t.Fatalf("complete: %v", err)
		}
		keys[grant.Lease.Key] = true
	}
	if _, ok, err := rs.ClaimJob("w1", time.Minute); ok || err != nil {
		t.Fatalf("claim on drained queue: ok=%v err=%v", ok, err)
	}
	waitState(t, ts, st.ID, StateDone)
	for k := range keys {
		if _, ok := cache.Get(k); !ok {
			t.Errorf("result %s never landed in the server's store", k)
		}
	}
	if leases := srv.leases.list(); len(leases) != 0 {
		t.Fatalf("lease table not empty after completion: %+v", leases)
	}
}

// TestLeaseExpiryRequeues: a claim whose heartbeats stop is requeued
// after its TTL and granted to the next worker; the original holder's
// late completion is rejected with 410 (its result is not lost -- the
// Put already landed, so the re-run is a cache hit).
func TestLeaseExpiryRequeues(t *testing.T) {
	_, srv, ts, rs := newRemoteHarness(t, Config{Workers: -1, LeaseSweep: 20 * time.Millisecond})
	srv.Start()
	st := postSpec(t, ts, specJSON("exp", 1))

	grant, ok, err := rs.ClaimJob("dying-worker", 60*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}

	// No heartbeat: the expiry sweep requeues the job; poll until the
	// healthy worker gets it.
	var grant2 sweep.LeaseGrant
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, ok, err := rs.ClaimJob("healthy-worker", time.Minute)
		if err != nil {
			t.Fatalf("reclaim: %v", err)
		}
		if ok {
			grant2 = g
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease's job was never requeued")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if grant2.Lease.Key != grant.Lease.Key || grant2.Index != grant.Index {
		t.Fatalf("requeued grant %+v does not match original %+v", grant2, grant)
	}

	// The zombie's completion must bounce: its lease is gone.
	zombie := sweep.JobResult{Job: *grant.Job, Key: grant.Lease.Key}
	if err := rs.CompleteJob(grant.Lease.ID, zombie); !errors.Is(err, sweep.ErrLeaseLost) {
		t.Fatalf("zombie completion = %v, want ErrLeaseLost", err)
	}

	jr := executeGrant(t, rs, sweep.NewEnv(), grant2)
	if err := rs.CompleteJob(grant2.Lease.ID, jr); err != nil {
		t.Fatalf("healthy completion: %v", err)
	}
	waitState(t, ts, st.ID, StateDone)
}

// TestKillWorkerMidLease is the recovery guarantee end to end, in
// process: worker A claims a job and dies silently (no completion, no
// renewals -- the moral equivalent of kill -9), a real sfworker loop
// picks the requeued job up, and the sweep completes with an entry
// byte-identical to a single-box execution of the same job.
func TestKillWorkerMidLease(t *testing.T) {
	cache, srv, ts, rs := newRemoteHarness(t, Config{Workers: -1, LeaseSweep: 20 * time.Millisecond})
	srv.Start()
	st := postSpec(t, ts, specJSON("kill", 1))

	grantA, ok, err := rs.ClaimJob("victim", 80*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("victim claim: ok=%v err=%v", ok, err)
	}
	// Worker A is now "dead": it never renews or completes.

	stats, err := sweep.Work(context.Background(), rs, sweep.NewEnv(), sweep.WorkerOptions{
		Owner: "survivor", TTL: 2 * time.Second, Poll: 20 * time.Millisecond,
		IdleExit: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("worker loop: %v", err)
	}
	if stats.Done != 1 {
		t.Fatalf("survivor stats = %+v, want exactly 1 done", stats)
	}
	waitState(t, ts, st.ID, StateDone)

	// Byte-identical recovery: the entry the survivor produced for the
	// victim's job must match a from-scratch single-box execution.
	key := grantA.Job.Key()
	served, ok := cache.Get(key)
	if !ok {
		t.Fatalf("no entry for the recovered job %s", key)
	}
	solo, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := sweep.NewEnv()
	job := *grantA.Job
	jr := sweep.Execute(sweep.Task{
		Job: job, Key: key,
		Build: func() (sim.Config, error) { return env.Config(job) },
	}, solo, 0)
	if jr.Err != "" {
		t.Fatalf("single-box run failed: %s", jr.Err)
	}
	want, ok := solo.Get(key)
	if !ok {
		t.Fatal("single-box run left no entry")
	}
	if !entryPayloadEqual(t, served, want) {
		t.Fatal("recovered entry differs from single-box execution")
	}
}

// entryPayloadEqual compares the deterministic payload of two entries
// (job, result, metrics), ignoring the wall-clock fields (Created,
// Elapsed) that legitimately differ between executions.
func entryPayloadEqual(t *testing.T, a, b sweep.Entry) bool {
	t.Helper()
	a.Created, b.Created = time.Time{}, time.Time{}
	a.Elapsed, b.Elapsed = 0, 0
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Logf("entry A: %s", aj)
		t.Logf("entry B: %s", bj)
		return false
	}
	return true
}

// TestPutEntryKeyMismatch: an upload is stored only under its own job's
// content address. Entry A put under B's key is a 400 key_mismatch that
// leaves the store as it was; a worker's real upload is still accepted.
func TestPutEntryKeyMismatch(t *testing.T) {
	cache, srv, ts, rs := newRemoteHarness(t, Config{Workers: -1, Token: "tok"})
	srv.Start()
	postSpec(t, ts, specJSON("honest", 1))

	a := sweep.Job{Topo: sweep.TopoSpec{Kind: "SF", Q: 5}, Algo: "min", Pattern: "uniform", Load: 0.2, Seed: 1}
	b := a
	b.Load = 0.3
	body, err := json.Marshal(sweep.Entry{Job: a, Result: sim.Result{Delivered: 11}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/results/"+b.Key(), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ae apiError
	err = json.NewDecoder(resp.Body).Decode(&ae)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || ae.Kind != "key_mismatch" {
		t.Fatalf("entry A under B's key: status %d kind %q (%v)", resp.StatusCode, ae.Kind, err)
	}
	if n := storetest.Count(t, cache); n != 0 {
		t.Fatalf("refused upload changed the store: %d entries", n)
	}

	grant, ok, err := rs.ClaimJob("w", time.Minute)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	jr := executeGrant(t, rs, sweep.NewEnv(), grant)
	if jr.StoreErr != "" {
		t.Fatalf("worker upload refused: %s", jr.StoreErr)
	}
	if _, ok := cache.Get(grant.Job.Key()); !ok {
		t.Fatal("worker upload did not land in the store")
	}
}

// postSpecAuth submits a spec to a token-guarded server. Submission
// itself is unauthenticated (clients submit; workers mutate), so this is
// just postSpec -- kept separate to document the intent.
func postSpecAuth(t *testing.T, ts *httptest.Server, spec string) Status {
	t.Helper()
	return postSpec(t, ts, spec)
}

// TestLeaseRequestRejectsKey: the claim endpoint grants jobs, not
// leases on keys of the client's choosing. A request that names a key is
// a structured 400 and takes nothing off the queue; the DELETE route
// does not exist.
func TestLeaseRequestRejectsKey(t *testing.T) {
	_, srv, ts, _ := newRemoteHarness(t, Config{Workers: -1})
	postSpec(t, ts, specJSON("keyed", 1))

	body := `{"key":"` + storetest.Key(1) + `","owner":"stale-client","ttl_seconds":60}`
	if code, ae := postForError(t, ts.URL+"/api/v1/leases", body); code != http.StatusBadRequest || ae.Kind != "bad_lease" {
		t.Fatalf("keyed lease request: status %d kind %q (%s)", code, ae.Kind, ae.Error)
	}
	if n, leases := pendingJobs(srv), srv.leases.list(); n != 1 || len(leases) != 0 {
		t.Fatalf("keyed lease request touched the queue: pending %d, leases %+v", n, leases)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/leases/jl-000000000000000000000000", nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer del.Body.Close()
	if del.StatusCode != http.StatusNotFound && del.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /api/v1/leases/{id}: status %d, want 404 or 405", del.StatusCode)
	}
}

// wireTime matches the RFC 3339 UTC timestamps in lease bodies.
var wireTime = regexp.MustCompile(`\d{4}-\d\d-\d\dT[0-9:.]+Z`)

// TestJobLeaseWireGolden pins the job-lease exchange an sfworker sees,
// as raw HTTP: the status code and response body of claim, renew,
// complete, a repeated complete, a claim on a dry queue, and renew and
// complete after the lease expired. Lease ids, keys and timestamps are
// masked; everything else is literal. The requests carry only owner and
// ttl_seconds, so the golden does not depend on what else a client sends.
func TestJobLeaseWireGolden(t *testing.T) {
	_, srv, ts, _ := newRemoteHarness(t, Config{Workers: -1})
	postSpec(t, ts, specJSON("wire", 2))

	const claimBody = `{"owner":"golden","ttl_seconds":60}`
	const renewBody = `{"ttl_seconds":60}`
	var lines, masks []string
	post := func(name, path, body string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("%s %d", name, resp.StatusCode)
		if len(raw) > 0 {
			var compact bytes.Buffer
			if err := json.Compact(&compact, raw); err != nil {
				t.Fatalf("%s: body is not JSON: %v (%s)", name, err, raw)
			}
			line += " " + compact.String()
		}
		lines = append(lines, line)
		return raw
	}
	claim := func() (leasePath, result string) {
		t.Helper()
		var g sweep.LeaseGrant
		if err := json.Unmarshal(post("claim", "/api/v1/leases", claimBody), &g); err != nil || g.Job == nil {
			t.Fatalf("claim granted no job: %v", err)
		}
		masks = append(masks, g.Lease.ID, "<id>", g.Lease.Key, "<key>")
		jr, err := json.Marshal(sweep.JobResult{Job: *g.Job, Key: g.Lease.Key})
		if err != nil {
			t.Fatal(err)
		}
		return "/api/v1/leases/" + g.Lease.ID, string(jr)
	}

	a, resultA := claim()
	post("renew", a+"/renew", renewBody)
	post("complete", a+"/complete", resultA)
	post("complete-again", a+"/complete", resultA)
	b, resultB := claim()
	post("claim-dry", "/api/v1/leases", claimBody)
	srv.leases.expire(time.Now().Add(time.Hour)) // b's heartbeats stopped
	post("renew-late", b+"/renew", renewBody)
	post("complete-late", b+"/complete", resultB)

	got := strings.NewReplacer(masks...).Replace(strings.Join(lines, "\n"))
	got = wireTime.ReplaceAllString(got, "<time>")
	const want = `claim 201 {"lease":{"id":"<id>","key":"<key>","owner":"golden","expires":"<time>"},"job":{"topo":{"kind":"SF","q":5},"algo":"min","pattern":"uniform","load":0.05,"seed":1,"sim":{"warmup":50,"measure":100,"drain":500}},"sweep_id":"sw-1"}
renew 200 {"lease":{"id":"<id>","key":"<key>","owner":"golden","expires":"<time>"}}
complete 204
complete-again 410 {"error":"sweepd: lease <id> expired and its job was requeued","kind":"lease_lost"}
claim 201 {"lease":{"id":"<id>","key":"<key>","owner":"golden","expires":"<time>"},"job":{"topo":{"kind":"SF","q":5},"algo":"min","pattern":"uniform","load":0.1,"seed":1,"sim":{"warmup":50,"measure":100,"drain":500}},"sweep_id":"sw-1","index":1}
claim-dry 204
renew-late 410 {"error":"sweepd: lease <id> expired or was never granted","kind":"lease_lost"}
complete-late 410 {"error":"sweepd: lease <id> expired and its job was requeued","kind":"lease_lost"}`
	if got != want {
		t.Errorf("job-lease wire exchange drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
