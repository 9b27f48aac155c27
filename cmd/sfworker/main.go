// Command sfworker is the remote half of a distributed sweep: it claims
// jobs from a running sfsweepd under TTL'd leases, executes each one
// locally through the exact same engine path the server's own pool uses,
// and uploads the result to the server's shared store. Point any number
// of workers (on any machines) at one server:
//
//	sfsweepd -addr :8080 -cache /var/lib/sfsweepd/cache -token s3cret
//	sfworker -server http://sweephost:8080 -token s3cret   # on each box
//
// A worker heartbeats its lease while a job runs; if the process dies
// (OOM, kill -9, power loss) the heartbeats stop, the lease expires and
// the server requeues the job for another worker. Cache keys exclude
// worker counts and machine identity, so a re-run -- or the same sweep
// executed single-box by `sfsweep` -- produces byte-identical results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"slimfly/internal/obs"
	"slimfly/internal/sweep"
)

func main() {
	var (
		server    = flag.String("server", "", "base URL of the sfsweepd to work for (required)")
		token     = flag.String("token", "", "bearer token (must match the server's -token)")
		owner     = flag.String("owner", "", "worker identity shown in the server's lease table (default host-pid)")
		ttl       = flag.Duration("ttl", 30*time.Second, "lease duration per claim; a dead worker's job is requeued within this")
		poll      = flag.Duration("poll", 500*time.Millisecond, "idle backoff between empty claims")
		idleExit  = flag.Duration("idle-exit", 0, "exit after this long without work (0: poll forever)")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address")
	)
	flag.Parse()
	if *server == "" {
		fmt.Fprintln(os.Stderr, "sfworker: -server required")
		os.Exit(2)
	}
	if *owner == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*owner = host + "-" + strconv.Itoa(os.Getpid())
	}
	if *debugAddr != "" {
		d, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fail(err)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "sfworker: debug listener on http://%s/debug/vars\n", d.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rs := sweep.OpenRemote(*server, *token)
	fmt.Fprintf(os.Stderr, "sfworker: %s working for %s (ttl %s)\n", *owner, rs.URL(), *ttl)
	stats, err := sweep.Work(ctx, rs, sweep.NewEnv(), sweep.WorkerOptions{
		Owner: *owner, TTL: *ttl, Poll: *poll, IdleExit: *idleExit,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sfworker: "+format+"\n", args...)
		},
	})
	fmt.Fprintf(os.Stderr, "sfworker: %d claimed, %d done, %d failed, %d lost\n",
		stats.Claimed, stats.Done, stats.Failed, stats.Lost)
	if err != nil && ctx.Err() == nil {
		fail(err)
	}
	if stats.Failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sfworker:", err)
	os.Exit(1)
}
