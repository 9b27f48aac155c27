// Command sfsweepd runs the sweep service: a long-lived HTTP/JSON server
// that accepts the same sweep specs `sfsweep -spec` reads, executes them
// on a shared fair-share pool and serves results from (and into) one
// content-addressed cache. Many clients submit concurrently; a huge sweep
// cannot starve a small one, and any point another client already
// computed is a cache hit.
//
// Usage:
//
//	sfsweepd -addr :8080 -cache /var/lib/sfsweepd/cache
//	curl -d @examples/sweeps/quick.json localhost:8080/api/v1/sweeps
//	curl localhost:8080/api/v1/sweeps/sw-1/events      # SSE: live results
//	curl localhost:8080/api/v1/sweeps/sw-1/results?format=csv
//
// SIGINT/SIGTERM triggers a graceful drain: no new claims, in-flight
// simulations finish and commit to the cache, queued sweeps are marked
// interrupted, then the process exits. Because every finished point is
// cached, restarting the server and resubmitting the same specs resumes
// exactly where the drain stopped -- as does running `sfsweep` against
// the same cache directory.
//
// With -token the mutating endpoints (result uploads and job leases)
// require that bearer token, and `sfworker -server <url> -token
// <t>` processes on other machines claim jobs from this server's queue,
// execute them locally and upload the results. `-workers -1` turns the
// server into a pure scheduler: every job runs on remote workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"slimfly/internal/sweep"
	"slimfly/internal/sweepd"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cacheDir = flag.String("cache", "sweepd-cache", "result cache directory (shared with sfsweep; empty disables caching and resume)")
		workers  = flag.Int("workers", 0, "local concurrent jobs (0: one per core; negative: no local execution, jobs run on remote sfworkers only)")
		drainT   = flag.Duration("drain-timeout", 10*time.Minute, "on SIGTERM, give in-flight jobs this long to finish and commit (0 waits forever)")
		token    = flag.String("token", "", "bearer token required on mutating endpoints (empty: open server)")
		leaseSw  = flag.Duration("lease-sweep", time.Second, "how often expired worker leases are requeued")
		debug    = flag.Bool("debug", true, "mount /debug/vars and /debug/pprof on the service address")
	)
	flag.Parse()

	var cache *sweep.Cache
	cfg := sweepd.Config{
		Workers:    *workers,
		Token:      *token,
		LeaseSweep: *leaseSw,
		Debug:      *debug,
	}
	if *cacheDir != "" {
		var err error
		if cache, err = sweep.OpenCache(*cacheDir); err != nil {
			fail(err)
		}
		cfg.Store = cache // assigned only when non-nil: Store is an interface
	}
	// Bind before reporting: the line names the bound address, so with
	// -addr 127.0.0.1:0 it carries the port the kernel picked.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	srv := sweepd.New(cfg)
	srv.Start()

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	// Catch signals before announcing the address: a client that reads
	// the line may stop the server at once, and that must drain too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	where, kept := "NO cache (results are not resumable)", "NO cache, so no finished point was kept"
	if cache != nil {
		where, kept = "cache "+cache.Dir(), "finished points are cached, resubmit to resume"
	}
	fmt.Fprintf(os.Stderr, "sfsweepd: listening on %s, %s\n", ln.Addr(), where)

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "sfsweepd: draining (waiting for in-flight jobs; interrupt again to abandon)")
	dctx := context.Background()
	if *drainT > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, *drainT)
		defer cancel()
	}
	drainErr := srv.Drain(dctx)
	// Stop accepting connections and let streaming subscribers unwind;
	// every event stream was closed by the drain, so this returns quickly.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "sfsweepd: drain abandoned: %v\n", drainErr)
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "sfsweepd: drained;", kept)
}

func fail(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "sfsweepd:", err)
	os.Exit(1)
}
