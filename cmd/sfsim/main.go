// Command sfsim runs a single network simulation and prints the result.
// Topologies, routing algorithms and traffic patterns are resolved by name
// through the scenario registry (internal/scenario), so sfsim accepts
// exactly the names sweep specs and `sfsweep -list` do; streaming metric
// collectors are resolved the same way through the internal/metrics
// registry (-metrics).
//
// Usage:
//
//	sfsim -topo SF -n 1000 -algo ugal-l -pattern uniform -load 0.5
//	sfsim -topo SF -q 19 -p 18 -algo min -pattern worstcase -load 0.2 -sweep
//	sfsim -algo ugal-l -load 0.7 -metrics latency,channels
//	sfsim -algo min -sweep -metrics all -json > run.json
//	sfsim -algo ugal-l -load 0.6 -trace-out trace.json -trace-format chrome
//	sfsim -q 19 -algo min -warmup 50 -measure 200 -cpuprofile cpu.prof
//	sfsim -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"

	"slimfly/internal/export"
	"slimfly/internal/metrics"
	"slimfly/internal/obs"
	"slimfly/internal/route"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/topo"
)

func main() {
	var (
		kind       = flag.String("topo", "SF", "topology kind (see -list)")
		n          = flag.Int("n", 1000, "target endpoint count")
		q          = flag.Int("q", 0, "exact Slim Fly order (overrides -n for SF)")
		p          = flag.Int("p", 0, "Slim Fly concentration override (needs -q)")
		algo       = flag.String("algo", "min", "routing algorithm (see -list)")
		pattern    = flag.String("pattern", "uniform", "traffic pattern (see -list)")
		load       = flag.Float64("load", 0.5, "offered load per endpoint")
		sweep      = flag.Bool("sweep", false, "sweep loads 0.1..0.9 instead of a single point")
		warmup     = flag.Int("warmup", 2000, "warmup cycles")
		measure    = flag.Int("measure", 5000, "measured cycles")
		bufSize    = flag.Int("buf", 64, "flit buffering per port")
		vcs        = flag.Int("vcs", 0, "virtual channels per port; 0 means one per hop of the longest path in the algorithm's path set on this network")
		metricsSel = flag.String("metrics", "", "streaming collectors, comma-separated (see -list; \"all\" selects every collector)")
		jsonOut    = flag.Bool("json", false, "emit results (and metric summaries) as JSON instead of the text table")
		traceOut   = flag.String("trace-out", "", "write the sampled packet trace to this file (adds the trace collector; single load point only)")
		traceFmt   = flag.String("trace-format", "chrome", "trace file format: chrome (Perfetto-loadable trace-event JSON) or jsonl")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of Sim.Run (set-up and printing excluded) to this file; single load point only")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address while running")
		seed       = flag.Uint64("seed", 1, "seed")
		list       = flag.Bool("list", false, "list registered topologies, algos, patterns and collectors")
	)
	flag.Parse()

	if *debugAddr != "" {
		d, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fail(err)
		}
		defer d.Close()
		fmt.Fprintf(os.Stderr, "sfsim: debug listener on http://%s/debug/vars\n", d.Addr())
	}
	if *traceOut != "" {
		if *sweep {
			usage(errors.New("-trace-out needs a single load point; drop -sweep"))
		}
		if *traceFmt != "chrome" && *traceFmt != "jsonl" {
			usage(fmt.Errorf("unknown -trace-format %q (chrome or jsonl)", *traceFmt))
		}
		if !slices.Contains(metrics.ParseNames(*metricsSel), "trace") {
			if *metricsSel == "" {
				*metricsSel = "trace"
			} else {
				*metricsSel += ",trace"
			}
		}
	}

	if *cpuProfile != "" && *sweep {
		usage(errors.New("-cpuprofile needs a single load point; drop -sweep"))
	}

	if *list {
		fmt.Print(scenario.ListText())
		fmt.Printf("collectors (-metrics):\n%s", metrics.Describe())
		return
	}

	spec := scenario.Spec{
		Topo:    scenario.TopoSpec{Kind: *kind, N: *n, Q: *q, P: *p, Seed: *seed},
		Algo:    *algo,
		Pattern: *pattern,
		Load:    *load,
		Seed:    *seed,
		Sim: scenario.SimParams{
			Warmup: *warmup, Measure: *measure,
			NumVCs: *vcs, BufPerPort: *bufSize,
			Metrics: *metricsSel,
		},
	}
	spec.Topo = spec.Topo.Canonical()
	if err := spec.Validate(); err != nil {
		usage(err)
	}
	selected := metrics.ParseNames(*metricsSel)
	hasLat := slices.Contains(selected, "latency")
	hasChan := slices.Contains(selected, "channels")

	// The memoised Env shares the topology, routing backend and pattern
	// across the load sweep; only the load differs per run. Its auto policy
	// keeps the BFS tables while they fit the budget, computed above it.
	env := scenario.NewEnv()
	t, rt, err := env.Topo(spec.Topo)
	if err != nil {
		fail(err)
	}
	if !*jsonOut {
		fmt.Println(topo.Summary(t))
		// The gauge sim.port_table_bytes reports what a finished run used.
		enginePorts := "backend"
		if sim.UsesPortTable(rt, t.Graph().MaxDegree()) {
			enginePorts = "table"
		}
		fmt.Printf("routing: backend=%s table_bytes=%d (9*n*n estimate %d) engine_ports=%s\n",
			rt.Backend(), rt.TableBytes(), route.EstimateTableBytes(t.Graph().N()), enginePorts)
	}
	if spec.Pattern == "worstcase" && !scenario.HasWorstCase(t) {
		fmt.Fprintf(os.Stderr, "sfsim: no adversarial pattern for %s; worstcase falls back to uniform traffic\n", t.Name())
	}

	loads := []float64{spec.Load}
	if *sweep {
		loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}

	// One JSON record per load: the aggregate Result plus the structured
	// collector summary (absent without -metrics).
	type point struct {
		Load    float64          `json:"load"`
		Result  sim.Result       `json:"result"`
		Metrics *metrics.Summary `json:"metrics,omitempty"`
	}
	var points []point
	var traceStats *metrics.TraceStats

	if !*jsonOut {
		fmt.Printf("%-6s %-12s %-10s %-9s %-9s", "load", "avg_latency", "accepted", "avg_hops", "saturated")
		if hasLat {
			fmt.Printf(" %-8s %-8s %-8s", "p50", "p95", "p99")
		}
		if hasChan {
			fmt.Printf(" %-9s", "max_util")
		}
		fmt.Println()
	}
	for _, l := range loads {
		spec.Load = l
		cfg, err := env.Config(spec)
		var ie *scenario.IncompatibleError
		if errors.As(err, &ie) {
			usage(err) // a bad flag pairing, not a runtime failure
		}
		if err != nil {
			fail(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			fail(err)
		}
		stopProfile := startCPUProfile(*cpuProfile)
		r := s.Run()
		stopProfile()
		sum := s.MetricsSummary()
		if sum != nil && sum.Trace != nil {
			traceStats = sum.Trace
		}
		if *jsonOut {
			points = append(points, point{Load: l, Result: r, Metrics: sum})
			continue
		}
		fmt.Printf("%-6.2f %-12.2f %-10.4f %-9.3f %-9v", l, r.AvgLatency, r.Accepted, r.AvgHops, r.Saturated)
		if hasLat {
			p50, p95, p99 := 0.0, 0.0, 0.0
			if sum != nil && sum.Latency != nil {
				p50, p95, p99 = sum.Latency.P50, sum.Latency.P95, sum.Latency.P99
			}
			fmt.Printf(" %-8.1f %-8.1f %-8.1f", p50, p95, p99)
		}
		if hasChan {
			mu := 0.0
			if sum != nil && sum.Channels != nil {
				mu = sum.Channels.MaxUtil
			}
			fmt.Printf(" %-9.4f", mu)
		}
		fmt.Println()
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(points); err != nil {
			fail(err)
		}
	}
	if *traceOut != "" {
		if traceStats == nil {
			fail(errors.New("run produced no trace section"))
		}
		if err := writeTrace(*traceOut, *traceFmt, traceStats); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "sfsim: wrote %s trace (%d events, %d packets, %d dropped) -> %s\n",
			*traceFmt, len(traceStats.Events), traceStats.Packets, traceStats.Dropped, *traceOut)
	}
}

// startCPUProfile starts a CPU profile into path and returns the function
// that stops it and closes the file; with an empty path both are no-ops.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fail(err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

// writeTrace serialises the sampled packet trace in the requested format.
func writeTrace(path, format string, ts *metrics.TraceStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "jsonl" {
		err = export.WriteTraceJSONL(f, ts)
	} else {
		err = export.WriteChromeTrace(f, ts)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sfsim:", err)
	os.Exit(1)
}

// usage exits with status 2 for flag-level mistakes (unknown or
// incompatible scenario names), matching the other CLIs' convention.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "sfsim:", err)
	os.Exit(2)
}
