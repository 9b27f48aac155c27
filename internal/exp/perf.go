package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"slimfly/internal/metrics"
	"slimfly/internal/route"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/sweep"
	"slimfly/internal/topo"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// PerfScale controls the size and simulation windows of the Figure 6/8
// experiments. The paper states N = 1K..10K give results within 10% of
// each other (Section V), so Small is the default regeneration scale.
type PerfScale struct {
	TargetN int
	Warmup  int
	Measure int
	Drain   int
	Loads   []float64
}

// SmallScale is the fast regeneration configuration (N ~ 1K).
func SmallScale() PerfScale {
	return PerfScale{
		TargetN: 1000, Warmup: 2000, Measure: 4000, Drain: 30000,
		Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	}
}

// TinyScale is the single-core-friendly configuration (N ~ 600, coarse
// load grid); useful on constrained machines and in CI.
func TinyScale() PerfScale {
	return PerfScale{
		TargetN: 600, Warmup: 800, Measure: 2000, Drain: 12000,
		Loads: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
	}
}

// PaperScale is the full 10K-endpoint configuration of Section V.
func PaperScale() PerfScale {
	return PerfScale{
		TargetN: 10500, Warmup: 5000, Measure: 10000, Drain: 60000,
		Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	}
}

// perfNetworks bundles the three compared systems of Section V.
type perfNetworks struct {
	sf   *slimfly.SlimFly
	df   topo.Topology
	ft   *fattree.FatTree
	sfTb route.Router
	dfTb route.Router
	ftTb route.Router
}

// runCtx is the context the experiment pools run under. Experiments
// return Tables, not errors, so cancellation surfaces as a panic with
// the context error (see runAll); SetContext lets the sfexp binary make
// that panic fire on SIGINT/SIGTERM instead of leaving a long
// paper-scale run uninterruptible.
var runCtx atomic.Value // context.Context

// SetContext installs the context simulator-backed experiments (Fig6*,
// Fig8*) are cancelled through. Without it they run under
// context.Background -- existing callers and tests are unaffected.
func SetContext(ctx context.Context) { runCtx.Store(ctx) }

func runContext() context.Context {
	if v := runCtx.Load(); v != nil {
		return v.(context.Context)
	}
	return context.Background()
}

// perfEnv memoises topology construction and routing-table builds (which
// include the port-indexed tables the simulator hot path runs on) across
// the whole experiment suite: Fig6a-d, Fig8a/8b-e and the benches resolve
// their networks through this one scenario.Env, so each network at a given
// scale and seed is built exactly once per process no matter how many
// figures, loads or seeds consume it.
var perfEnv = scenario.NewEnv()

// mustTopo resolves a topology spec through the shared memoised Env.
func mustTopo(spec scenario.TopoSpec) (topo.Topology, route.Router) {
	tp, tb, err := perfEnv.Topo(spec)
	if err != nil {
		panic(err)
	}
	return tp, tb
}

func buildPerfNetworks(sc PerfScale, seed uint64) perfNetworks {
	sfT, sfTb := mustTopo(scenario.TopoSpec{Kind: "SF", N: sc.TargetN, Seed: seed})
	dfT, dfTb := mustTopo(scenario.TopoSpec{Kind: "DF", N: sc.TargetN, Seed: seed})
	ftT, ftTb := mustTopo(scenario.TopoSpec{Kind: "FT-3", N: sc.TargetN, Seed: seed})
	return perfNetworks{
		sf: sfT.(*slimfly.SlimFly), df: dfT, ft: ftT.(*fattree.FatTree),
		sfTb: sfTb, dfTb: dfTb, ftTb: ftTb,
	}
}

type runSpec struct {
	label   string
	tp      topo.Topology
	tb      route.Router
	algo    sim.Algo
	pattern traffic.Pattern
	load    float64
}

// runAll executes the specs on the sweep engine's pool and
// returns results (and, when metricsSel names collectors, the structured
// summaries) in order. The networks and patterns are pre-built, so the
// tasks carry closures rather than declarative jobs; the per-index seed
// scheme keeps results bit-identical to sequential execution, and
// perfOptions may additionally shard each simulation across spare cores
// (the sharded engine -- collectors included -- is bit-identical too, so
// figures never depend on the machine's core count).
func runAll(specs []runSpec, sc PerfScale, seed uint64, metricsSel string) ([]sim.Result, []*metrics.Summary) {
	tasks := make([]sweep.Task, len(specs))
	for i := range specs {
		i := i
		tasks[i] = sweep.Task{Build: func() (sim.Config, error) {
			return sim.Config{
				Topo: specs[i].tp, Router: specs[i].tb, Algo: specs[i].algo,
				Pattern: specs[i].pattern, Load: specs[i].load,
				Warmup: sc.Warmup, Measure: sc.Measure, Drain: sc.Drain,
				Metrics: metricsSel,
				Seed:    seed + uint64(i)*7919,
			}, nil
		}}
	}
	jrs, _, err := sweep.RunTasks(runContext(), tasks, perfOptions(len(tasks)))
	if err != nil {
		panic(err)
	}
	results := make([]sim.Result, len(specs))
	sums := make([]*metrics.Summary, len(specs))
	for i, jr := range jrs {
		if jr.Err != "" {
			panic(jr.Err)
		}
		results[i] = jr.Result
		sums[i] = jr.Metrics
	}
	return results, sums
}

// perfOptions is the experiment pool configuration: the machine's cores
// split between concurrent simulations and intra-simulation shards, so
// the big Fig6/Fig8 networks of the paper-scale runs keep every core busy
// even when only a few (or one) simulation remains.
func perfOptions(njobs int) sweep.Options {
	pw, sw := sweep.SplitParallelism(njobs, runtime.GOMAXPROCS(0))
	return sweep.Options{Workers: pw, SimWorkers: sw}
}

// runConfigs executes fully built simulator configurations on the sweep
// pool and returns results and summaries in order; used by the
// experiments whose knobs (buffer depth, oversubscription, collector
// selection) live outside the runSpec shape.
func runConfigs(cfgs []sim.Config) ([]sim.Result, []*metrics.Summary) {
	tasks := make([]sweep.Task, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i]
		tasks[i] = sweep.Task{Build: func() (sim.Config, error) { return cfg, nil }}
	}
	jrs, _, err := sweep.RunTasks(runContext(), tasks, perfOptions(len(tasks)))
	if err != nil {
		panic(err)
	}
	results := make([]sim.Result, len(cfgs))
	sums := make([]*metrics.Summary, len(cfgs))
	for i, jr := range jrs {
		if jr.Err != "" {
			panic(jr.Err)
		}
		results[i] = jr.Result
		sums[i] = jr.Metrics
	}
	return results, sums
}

// patternFor builds the per-topology traffic pattern for a Figure 6
// subfigure; the construction rules live in the scenario registry now.
func (p *perfNetworks) patternFor(name string, tp topo.Topology, tb route.Router, seed uint64) traffic.Pattern {
	pat, err := scenario.BuildPattern(name, tp, tb, seed)
	if err != nil {
		return traffic.Uniform{N: tp.Endpoints()}
	}
	return pat
}

// Fig6 reproduces one subfigure of Figure 6 (a: uniform, b: bitrev,
// c: shift, d: worstcase): latency and accepted throughput versus offered
// load for SF-MIN, SF-VAL, SF-UGAL-L, SF-UGAL-G, DF-UGAL-L and FT-ANCA.
// The tail columns (P50/P99) come from the streaming latency histogram --
// the paper's latency-vs-load curves are means, but the tail is where the
// protocols separate first.
func Fig6(pattern string, sc PerfScale, seed uint64) *Table {
	nets := buildPerfNetworks(sc, seed)
	t := &Table{
		Title: fmt.Sprintf("Figure 6 (%s): latency vs offered load [SF N=%d, DF N=%d, FT N=%d]",
			pattern, nets.sf.Endpoints(), nets.df.Endpoints(), nets.ft.Endpoints()),
		Columns: []string{"protocol", "load", "avg_latency", "accepted", "avg_hops", "saturated", "p50", "p99"},
	}
	// One network bundle per kind; patterns are read-only during
	// simulation and the adversarial ones are expensive to derive, so
	// each is built once and shared across protocols and loads. The
	// protocol curves themselves come from fig6Protocols -- the same
	// definition Fig6Specs expresses declaratively.
	type netBundle struct {
		tp  topo.Topology
		tb  route.Router
		pat traffic.Pattern
	}
	byKind := map[string]netBundle{
		"SF":   {nets.sf, nets.sfTb, nets.patternFor(pattern, nets.sf, nets.sfTb, seed)},
		"DF":   {nets.df, nets.dfTb, nets.patternFor(pattern, nets.df, nets.dfTb, seed)},
		"FT-3": {nets.ft, nets.ftTb, nets.patternFor(pattern, nets.ft, nets.ftTb, seed)},
	}
	var specs []runSpec
	for _, load := range sc.Loads {
		for _, pr := range fig6Protocols {
			nb := byKind[pr.Kind]
			algo, err := scenario.BuildAlgo(pr.Algo, nb.tp)
			if err != nil {
				panic(err)
			}
			specs = append(specs, runSpec{pr.Label, nb.tp, nb.tb, algo, nb.pat, load})
		}
	}
	results, sums := runAll(specs, sc, seed, "latency")
	for i, r := range results {
		var p50, p99 float64
		if sums[i] != nil && sums[i].Latency != nil {
			p50, p99 = sums[i].Latency.P50, sums[i].Latency.P99
		}
		t.Add(specs[i].label, specs[i].load, r.AvgLatency, r.Accepted, r.AvgHops, r.Saturated, p50, p99)
	}
	return t
}

// Fig8a reproduces Figure 8a: the influence of input buffer size (8..256
// flits per port) on worst-case traffic latency, SF with UGAL-L.
func Fig8a(sc PerfScale, seed uint64) *Table {
	sfT, tb := mustTopo(scenario.TopoSpec{Kind: "SF", N: sc.TargetN, Seed: seed})
	sf := sfT.(*slimfly.SlimFly)
	wc := sf.WorstCase(tb, seed)
	t := &Table{
		Title:   fmt.Sprintf("Figure 8a: buffer-size study (worst-case traffic, SF N=%d, UGAL-L)", sf.Endpoints()),
		Columns: []string{"buffer_flits", "load", "avg_latency", "accepted", "max_chan_util"},
	}
	type point struct {
		buf  int
		load float64
	}
	var pts []point
	var cfgs []sim.Config
	for _, buf := range fig8aBuffers {
		for _, load := range fig8aLoads {
			pts = append(pts, point{buf, load})
			cfgs = append(cfgs, sim.Config{
				Topo: sf, Router: tb, Algo: sim.UGALL{}, Pattern: wc, Load: load,
				BufPerPort: buf, Warmup: sc.Warmup, Measure: sc.Measure, Drain: sc.Drain,
				// The buffer study runs adversarial traffic; the channel
				// collector makes the induced hotspot itself part of the
				// table instead of a private engine tally.
				Metrics: "channels",
				Seed:    seed,
			})
		}
	}
	results, sums := runConfigs(cfgs)
	for i, r := range results {
		var maxUtil float64
		if sums[i] != nil && sums[i].Channels != nil {
			maxUtil = sums[i].Channels.MaxUtil
		}
		t.Add(pts[i].buf, pts[i].load, r.AvgLatency, r.Accepted, maxUtil)
	}
	return t
}

// Fig8be reproduces Figures 8b-8e: oversubscribed Slim Flies (p = 16 and
// p = 18 on the chosen q) under uniform and worst-case traffic, all four
// routing protocols.
func Fig8be(sc PerfScale, seed uint64) *Table {
	baseT, _ := mustTopo(scenario.TopoSpec{Kind: "SF", N: sc.TargetN, Seed: seed})
	base := baseT.(*slimfly.SlimFly)
	q := base.Q
	balanced := base.Concentration()
	t := &Table{
		Title:   fmt.Sprintf("Figure 8b-e: oversubscribed SF (q=%d, balanced p=%d)", q, balanced),
		Columns: []string{"p", "pattern", "protocol", "load", "avg_latency", "accepted"},
	}
	// The paper studies p = 16 and 18 on q = 19 (balanced p = 15); scale
	// the over-subscription proportionally for other q.
	overs := []int{balanced + 1, balanced + 3}
	algos := []sim.Algo{sim.MIN{}, sim.VAL{}, sim.UGALL{}, sim.UGALG{}}
	type point struct {
		p    int
		pat  string
		algo string
		load float64
	}
	var pts []point
	var cfgs []sim.Config
	for _, p := range overs {
		sfT, tb := mustTopo(scenario.TopoSpec{Kind: "SF", Q: q, P: p})
		sf := sfT.(*slimfly.SlimFly)
		for _, pat := range []string{"uniform", "worstcase"} {
			var pattern traffic.Pattern = traffic.Uniform{N: sf.Endpoints()}
			loads := []float64{0.2, 0.4, 0.6, 0.8}
			if pat == "worstcase" {
				pattern = sf.WorstCase(tb, seed)
				loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
			}
			for _, a := range algos {
				for _, load := range loads {
					pts = append(pts, point{p, pat, a.Name(), load})
					cfgs = append(cfgs, sim.Config{
						Topo: sf, Router: tb, Algo: a, Pattern: pattern, Load: load,
						Warmup: sc.Warmup, Measure: sc.Measure, Drain: sc.Drain, Seed: seed,
					})
				}
			}
		}
	}
	results, _ := runConfigs(cfgs)
	for i, r := range results {
		t.Add(pts[i].p, pts[i].pat, pts[i].algo, pts[i].load, r.AvgLatency, r.Accepted)
	}
	return t
}
