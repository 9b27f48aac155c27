package sweep

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkRejectsMalformedGrant: a claim grant whose lease key is not its
// job's content address (here a two-character key, which the worker's
// abbreviating log lines would slice out of range) is a failed claim --
// no job is taken, nothing panics, and the loop keeps polling.
func TestWorkRejectsMalformedGrant(t *testing.T) {
	var claims atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/api/v1/leases" {
			t.Errorf("unexpected request %s %s: the grant must not be acted on", r.Method, r.URL.Path)
			http.NotFound(w, r)
			return
		}
		claims.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"lease":{"id":"x","key":"ab"},"job":{"topo":{"kind":"SF","q":5},"algo":"min","pattern":"uniform","load":0.1,"seed":1,"sim":{}}}`)
	}))
	defer srv.Close()

	var logs []string // Work logs from its own goroutine only while no job is held
	stats, err := Work(context.Background(), OpenRemote(srv.URL, ""), NewEnv(), WorkerOptions{
		Owner: "t", Poll: time.Millisecond, IdleExit: 50 * time.Millisecond,
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (WorkerStats{}) {
		t.Errorf("stats = %+v, want no job claimed", stats)
	}
	if claims.Load() < 2 {
		t.Errorf("server saw %d claims, want the loop to keep polling", claims.Load())
	}
	if !strings.Contains(strings.Join(logs, "\n"), "claim failed: sweep: claim grant's lease key") {
		t.Errorf("no claim-failure log line; got %q", logs)
	}
}
