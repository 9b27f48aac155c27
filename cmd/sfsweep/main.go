// Command sfsweep orchestrates simulation sweeps: it expands a declarative
// JSON spec (topologies x routing algorithms x traffic patterns x load grid
// x seeds) into a deterministic job list, runs it on a worker pool,
// serves repeated points from a content-addressed on-disk cache, and
// writes an artifact directory with the results as JSON and CSV.
//
// Usage:
//
//	sfsweep -spec examples/sweeps/fig6a.json -out sweep-out
//	sfsweep -spec spec.json -dry-run          # print the job list and exit
//	sfsweep -list                             # registered scenario names
//
// Interrupting a sweep (Ctrl-C) stops it cleanly after the in-flight jobs;
// finished points are already in the cache, so re-running the same command
// resumes where it left off instead of recomputing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"slimfly/internal/export"
	"slimfly/internal/metrics"
	"slimfly/internal/obs"
	"slimfly/internal/scenario"
	"slimfly/internal/sweep"
)

func main() {
	var (
		specPath   = flag.String("spec", "", "sweep spec file (JSON object or array; '-' for stdin)")
		outDir     = flag.String("out", "sweep-out", "artifact directory")
		cacheDir   = flag.String("cache", "", "result cache directory (default <out>/cache)")
		storeURL   = flag.String("store", "", "remote result store: base URL of a running sfsweepd (e.g. http://host:8080); overrides -cache, shares results across machines")
		token      = flag.String("token", "", "bearer token for -store writes (must match the server's -token)")
		workers    = flag.Int("workers", 0, "concurrent jobs (default: one per core)")
		metricsSel = flag.String("metrics", "", "streaming collectors for every job, comma-separated (overrides the specs' sim.metrics; \"all\" selects every collector)")
		interval   = flag.Duration("progress-every", 2*time.Second, "progress report interval (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address while the sweep runs")
		dryRun     = flag.Bool("dry-run", false, "print the expanded job list and exit")
		noCache    = flag.Bool("no-cache", false, "execute every job, ignoring and not writing the cache")
		list       = flag.Bool("list", false, "list registered topologies, algos, patterns and collectors")
	)
	flag.Parse()
	if *debugAddr != "" {
		d, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fail(err)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "sfsweep: debug listener on http://%s/debug/vars\n", d.Addr())
	}
	if *list {
		fmt.Print(scenario.ListText())
		fmt.Printf("collectors (-metrics / sim.metrics):\n%s", metrics.Describe())
		return
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "sfsweep: -spec required")
		os.Exit(2)
	}

	specs, err := readSpecs(*specPath)
	if err != nil {
		fail(err)
	}
	if *metricsSel != "" {
		// The selection is part of each job's cache key (different
		// collector output, different cache slot), so the override happens
		// before expansion and is re-validated with it.
		if err := metrics.CheckNames(*metricsSel); err != nil {
			fail(err)
		}
		for _, s := range specs {
			s.Sim.Metrics = *metricsSel
		}
	}
	jobs, err := sweep.ExpandAll(specs)
	if err != nil {
		fail(err)
	}
	if *dryRun {
		for i, j := range jobs {
			fmt.Printf("%4d %s %s\n", i, j.Key()[:12], j.Label())
		}
		fmt.Printf("%d jobs\n", len(jobs))
		return
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	// store stays a nil interface unless a live backend is assigned (a nil
	// *Cache in a non-nil interface would defeat the pool's nil checks).
	var store sweep.Store
	var storeDesc string
	switch {
	case *storeURL != "":
		rs := sweep.OpenRemote(*storeURL, *token)
		store = rs
		storeDesc = "store " + rs.URL()
	case !*noCache:
		dir := *cacheDir
		if dir == "" {
			dir = filepath.Join(*outDir, "cache")
		}
		cache, err := sweep.OpenCache(dir)
		if err != nil {
			fail(err)
		}
		store = cache
		storeDesc = "cache " + cache.Dir()
	}

	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "sfsweep: %d jobs on %d workers", len(jobs), nw)
	if storeDesc != "" {
		fmt.Fprintf(os.Stderr, ", %s", storeDesc)
	}
	fmt.Fprintln(os.Stderr)

	// Ctrl-C cancels the pool after in-flight jobs; finished points are
	// already cached, so the next run resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prog := sweep.NewProgress(len(jobs), nw)
	// The live snapshot also rides the expvar page: with -debug-addr,
	// `curl /debug/vars | jq '.slimfly.sweep_progress'` is the remote
	// equivalent of the stderr ticker line.
	obs.Publish("sweep_progress", func() any { return prog.Snapshot() })
	var ticker *time.Ticker
	stopTick := make(chan struct{})
	if *interval > 0 {
		ticker = time.NewTicker(*interval)
		go func() {
			for {
				select {
				case <-ticker.C:
					fmt.Fprintf(os.Stderr, "sfsweep: %s\n", prog.Snapshot())
				case <-stopTick:
					return
				}
			}
		}()
	}

	// prog is the sweep's ledger: the pool records every claim and result
	// in it, and everything below reads the outcome from it.
	_, _, runErr := sweep.RunJobs(ctx, jobs, sweep.NewEnv(), sweep.Options{
		Workers:  nw,
		Store:    store,
		Progress: prog,
		OnDone: func(_ int, r sweep.JobResult) {
			if r.Err != "" {
				fmt.Fprintf(os.Stderr, "sfsweep: FAILED %s: %s\n", r.Job.Label(), r.Err)
			}
		},
	})
	if ticker != nil {
		ticker.Stop()
		close(stopTick)
	}

	finished, stats := prog.Finished()
	if err := writeArtifacts(*outDir, specs, finished, stats); err != nil {
		fail(err)
	}
	snap := prog.Snapshot()
	snap.ETA = 0 // final summary: nothing left to estimate
	fmt.Fprintf(os.Stderr, "sfsweep: %s in %s -> %s\n", snap, snap.Elapsed.Round(time.Millisecond), *outDir)
	if stats.PutErrors > 0 {
		// Results are intact (they are in the artifacts above); what was
		// lost is their reuse -- the next run will recompute these points.
		fmt.Fprintf(os.Stderr, "sfsweep: WARNING: %d result-store write(s) failed; first: %s\n",
			stats.PutErrors, stats.FirstStoreErr)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "sfsweep: interrupted (%d jobs not run); re-run to resume\n", stats.Skipped)
		os.Exit(130)
	}
	if stats.Failed > 0 {
		os.Exit(1)
	}
}

func readSpecs(path string) ([]*sweep.Spec, error) {
	if path == "-" {
		return sweep.ParseSpecs(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sweep.ParseSpecs(f)
}

// writeArtifacts writes results.json (full artifact: specs, stats, the
// finished jobs' results and metric summaries) and results.csv into dir,
// plus channels.csv (per-job hottest channels) when any job ran the
// channels collector.
func writeArtifacts(dir string, specs []*sweep.Spec, finished []sweep.JobResult, stats sweep.Stats) error {
	art := export.SweepArtifact{Stats: stats, Results: finished}
	if len(specs) == 1 {
		art.Spec = specs[0]
	}
	jf, err := os.Create(filepath.Join(dir, "results.json"))
	if err != nil {
		return err
	}
	if err := export.WriteSweepJSON(jf, art); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(dir, "results.csv"))
	if err != nil {
		return err
	}
	if err := export.WriteSweepCSV(cf, art.Results); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}
	for _, r := range art.Results {
		if r.Metrics != nil && r.Metrics.Channels != nil {
			hf, err := os.Create(filepath.Join(dir, "channels.csv"))
			if err != nil {
				return err
			}
			if err := export.WriteChannelsCSV(hf, art.Results); err != nil {
				hf.Close()
				return err
			}
			return hf.Close()
		}
	}
	// No channel data this run: drop any channels.csv a previous sweep
	// left in the directory, so the artifact set is always internally
	// consistent.
	if err := os.Remove(filepath.Join(dir, "channels.csv")); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sfsweep:", err)
	os.Exit(1)
}
