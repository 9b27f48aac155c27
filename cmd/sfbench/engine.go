package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"slimfly/internal/metrics"
	"slimfly/internal/obs"
	"slimfly/internal/route"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// engineSize is one engine workload: a Slim Fly of order q at the
// paper's balanced concentration, one algorithm, pattern and load, and
// the way the sim layer is driven (routing backend, serial or phased
// engine, collectors).
type engineSize struct {
	q                      int
	algo, pattern          string
	load                   float64
	backend                route.Policy
	workers                int
	collectors             string
	warmup, measure, drain int
}

// The two engine workloads use the sim layer in opposite ways on every
// axis: serial fast path over the flat port table with nothing attached,
// against the phased path with an adaptive algorithm, permutation
// traffic, per-call Router lookups and observer hooks.
var (
	engineMinUniform = engineSize{
		q: 19, algo: "min", pattern: "uniform", load: 0.5,
		backend: route.PolicyTables, workers: 0, collectors: "",
		warmup: 50, measure: 200, drain: 4000,
	}
	engineUgalWorstcase = engineSize{
		q: 19, algo: "ugal-l", pattern: "worstcase", load: 0.3,
		backend: route.PolicyComputed, workers: 1, collectors: allCollectors,
		warmup: 50, measure: 100, drain: 4000,
	}
)

// allCollectors is the selection the collector-overhead comparison turns
// on (and the one engine_ugal_worstcase always carries).
const allCollectors = "latency,channels,fairness"

func (sz engineSize) spec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Topo: scenario.TopoSpec{Kind: "SF", Q: sz.q}, Algo: sz.algo, Pattern: sz.pattern,
		Load: sz.load, Seed: seed,
		Sim: scenario.SimParams{
			Warmup: sz.warmup, Measure: sz.measure, Drain: sz.drain,
			Workers: sz.workers, Metrics: sz.collectors,
		},
	}
}

// shortened returns the spec with a quarter of the window: the warm-up
// rep and the single-factor comparisons of the traced run.
func shortened(s scenario.Spec) scenario.Spec {
	s.Sim.Warmup = max(s.Sim.Warmup/4, 1)
	s.Sim.Measure = max(s.Sim.Measure/4, 1)
	return s
}

// engineRep is one unit of an engine workload: what a sweep job does on
// a cache miss once its Env is warm -- resolve the config, build the
// simulator, run it, summarise the collectors.
type engineRep struct {
	res                  sim.Result
	summary              *metrics.Summary
	total, newD, runD    time.Duration
	summaryD             time.Duration
	newBytes, runMallocs uint64 // traced reps only
}

func runEngineRep(tr *tracer, id string, env *scenario.Env, spec scenario.Spec) (engineRep, error) {
	var rep engineRep
	var m0, m1, m2 runtime.MemStats
	t0 := time.Now()
	root := tr.start(id, "rep")
	defer root.end()

	sp := tr.start(id, "Env.Config")
	cfg, err := env.Config(spec)
	sp.end()
	if err != nil {
		return rep, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp = tr.start(id, "sim.New")
	tn := time.Now()
	s, err := sim.New(cfg)
	rep.newD = time.Since(tn)
	sp.end()
	if err != nil {
		return rep, err
	}
	defer s.Close()
	if tr != nil {
		runtime.ReadMemStats(&m1)
	}
	sp = tr.start(id, "Sim.Run")
	tn = time.Now()
	rep.res = s.Run()
	rep.runD = time.Since(tn)
	sp.end()
	if tr != nil {
		runtime.ReadMemStats(&m2)
		rep.newBytes = m1.TotalAlloc - m0.TotalAlloc
		rep.runMallocs = m2.Mallocs - m1.Mallocs
	}
	sp = tr.start(id, "MetricsSummary")
	tn = time.Now()
	rep.summary = s.MetricsSummary()
	rep.summaryD = time.Since(tn)
	sp.end()
	rep.total = time.Since(t0)
	return rep, nil
}

// setupTimes are the layer timings of the traced set-ups.
type setupTimes struct {
	topoMS, patternMS, configUS, newMS []float64
}

// engineSetup is one set-up from nothing to the first steppable Sim:
// topology and routing backend, pattern, config, sim.New. The traced form
// resolves the memoised parts one by one so each gets a span.
func engineSetup(tr *tracer, id string, sz engineSize, spec scenario.Spec, st *setupTimes) (*scenario.Env, error) {
	root := tr.start(id, "setup")
	defer root.end()
	env := scenario.NewEnv(scenario.WithRouteBackend(sz.backend))
	if tr != nil {
		sp := tr.start(id, "Env.Topo")
		_, _, err := env.Topo(spec.Topo)
		st.topoMS = append(st.topoMS, ms(sp.end()))
		if err != nil {
			return nil, err
		}
		sp = tr.start(id, "Env.Pattern")
		_, err = env.Pattern(spec.Topo, spec.Pattern, spec.Seed)
		st.patternMS = append(st.patternMS, ms(sp.end()))
		if err != nil {
			return nil, err
		}
	}
	sp := tr.start(id, "Env.Config")
	cfg, err := env.Config(spec)
	st.configUS = append(st.configUS, us(sp.end()))
	if err != nil {
		return nil, err
	}
	sp = tr.start(id, "sim.New")
	s, err := sim.New(cfg)
	st.newMS = append(st.newMS, ms(sp.end()))
	if err != nil {
		return nil, err
	}
	s.Close()
	return env, nil
}

func summaryHash(s *metrics.Summary) string {
	data, err := json.Marshal(s)
	if err != nil {
		return "unmarshallable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func engineWorkload(r *run, sz engineSize) {
	spec := sz.spec(r.rng.Uint64())

	// Set-up, repeated; the last Env is the one the reps share.
	var env *scenario.Env
	var setups setupTimes
	err := r.setUp(func(i int) (_ func(), err error) {
		env, err = engineSetup(r.tr, fmt.Sprintf("setup-%d", i), sz, spec, &setups)
		return nil, err
	})
	if !r.opErr(err, "set-up") {
		return
	}
	tp, rt, _ := env.Topo(spec.Topo)
	r.op(tp.Routers() == 2*sz.q*sz.q && rt.MaxDistance() == 2,
		"SF q=%d: %d routers, diameter %d; want %d and 2", sz.q, tp.Routers(), rt.MaxDistance(), 2*sz.q*sz.q)
	if sz.q == 19 {
		r.op(tp.Routers() == 722 && tp.Endpoints() == 10830,
			"SF q=19: %d routers / %d endpoints; the paper's network has 722 / 10830", tp.Routers(), tp.Endpoints())
	}

	// One untimed warm-up rep, then timed reps for the budget. On a traced
	// run traced and plain reps alternate, and their difference is the
	// tracing overhead.
	if _, err := runEngineRep(nil, "", env, shortened(spec)); !r.opErr(err, "warm-up rep") {
		return
	}
	var plain, traced []engineRep
	var phase [3]time.Duration // warm-up, measure and drain time of the traced reps
	r.reps(3, func(n int, tr *tracer) {
		before := phaseTotals()
		rep, err := runEngineRep(tr, fmt.Sprintf("rep-%d", n), env, spec)
		if !r.opErr(err, "sim run") {
			return
		}
		if tr == nil {
			plain = append(plain, rep)
			return
		}
		traced = append(traced, rep)
		for k, after := range phaseTotals() {
			phase[k] += after - before[k]
		}
	})
	all := append(append([]engineRep(nil), plain...), traced...)
	if len(all) == 0 {
		return
	}
	first := all[0]
	hash := summaryHash(first.summary)
	for i, rep := range all {
		r.op(rep.res == first.res && summaryHash(rep.summary) == hash,
			"rep %d returned a different Result or summary than rep 0: %+v vs %+v", i, rep.res, first.res)
	}
	checkDrained(r, spec.Label(), first.res)
	r.checkRef(map[string]any{
		"scenario": spec, "result": first.res, "summary_sha256": hash,
		"routers": tp.Routers(), "endpoints": tp.Endpoints(),
	})

	if r.tr != nil {
		enginePerLayer(r, sz, spec, env, setups, traced, plain, phase)
		return
	}
	var totals, rates []float64
	for _, rep := range all {
		totals = append(totals, rep.total.Seconds())
		rates = append(rates, float64(rep.res.TotalCycles)/rep.runD.Seconds())
	}
	r.set("unit_s", fastTime(totals))
	r.set("work_per_s", fastRate(rates))
}

// checkDrained holds a run that was not cut off by the drain limit to
// conservation: every packet injected in the window was delivered.
func checkDrained(r *run, label string, res sim.Result) {
	r.op(res.Saturated || res.Delivered == res.Injected,
		"%s: not saturated, yet delivered %d of %d injected", label, res.Delivered, res.Injected)
}

// enginePerLayer derives the sim, metrics, scenario and traffic layer
// metrics of a traced engine run, including the single-factor
// comparisons, which are extra short reps that exist only here.
func enginePerLayer(r *run, sz engineSize, spec scenario.Spec, env *scenario.Env, setups setupTimes, traced, plain []engineRep, phase [3]time.Duration) {
	res := traced[0].res
	nt := float64(len(traced))
	var newBytes, mallocs, runS, sumMS, tracedTot, plainTot []float64
	for _, rep := range traced {
		newBytes = append(newBytes, float64(rep.newBytes))
		mallocs = append(mallocs, float64(rep.runMallocs)/float64(rep.res.TotalCycles))
		runS = append(runS, rep.runD.Seconds())
		sumMS = append(sumMS, ms(rep.summaryD))
		tracedTot = append(tracedTot, rep.total.Seconds())
	}
	for _, rep := range plain {
		plainTot = append(plainTot, rep.total.Seconds())
	}
	r.set("bench.trace_overhead_pct", pctOver(fastTime(tracedTot), fastTime(plainTot)))
	r.set("scenario.env_topo_ms", median(setups.topoMS))
	r.set("scenario.config_us", median(setups.configUS))
	r.set("sim.new_ms", median(setups.newMS))
	r.set("sim.new_bytes", median(newBytes))
	r.set("sim.run_s.med", median(runS))
	r.set("sim.run_s.min", slices.Min(runS))
	r.set("sim.run_s.max", slices.Max(runS))
	r.set("sim.allocs_per_cycle", median(mallocs))
	r.set("sim.total_cycles", float64(res.TotalCycles))
	r.set("sim.injected", float64(res.Injected))
	r.set("sim.delivered", float64(res.Delivered))
	drain := res.TotalCycles - int64(sz.warmup+sz.measure)
	r.set("sim.ns_per_cycle.warmup", float64(phase[0].Nanoseconds())/nt/float64(sz.warmup))
	r.set("sim.ns_per_cycle.measure", float64(phase[1].Nanoseconds())/nt/float64(sz.measure))
	if drain > 0 {
		r.set("sim.ns_per_cycle.drain", float64(phase[2].Nanoseconds())/nt/float64(drain))
	}
	// Measured flit-hops: the hops of the packets injected in the window.
	// Warm-up traffic moves too, so this overstates the cost of one hop;
	// the divisor is a simulated statistic and so identical across commits.
	if hops := res.AvgHops * float64(res.Delivered); hops > 0 {
		r.set("sim.ns_per_flit_hop", 1e9*median(runS)/hops)
	}
	r.set("metrics.summary_ms", median(sumMS))
	if data, err := json.Marshal(traced[0].summary); err == nil && traced[0].summary != nil {
		r.set("metrics.summary_bytes", float64(len(data)))
	}

	// The worst-case pattern on this workload's backend (from the
	// set-ups) and, built once more, on the other one.
	if tp, rt, err := env.Topo(spec.Topo); sz.pattern == "worstcase" && r.opErr(err, "topology") {
		r.set("traffic.worstcase_build_ms."+rt.Backend(), median(setups.patternMS))
		other := route.PolicyTables
		if rt.Backend() == "tables" {
			other = route.PolicyComputed
		}
		if ort, err := route.Select(tp.Graph(), oracleOf(tp), other, 0); r.opErr(err, "the other routing backend") {
			sp := r.tr.start("worstcase-"+ort.Backend(), "BuildPattern")
			_, err := scenario.BuildPattern(spec.Pattern, tp, ort, spec.Seed)
			r.set("traffic.worstcase_build_ms."+ort.Backend(), ms(sp.end()))
			r.opErr(err, "worst-case pattern on "+ort.Backend())
		}
	}

	// Memoised resolution and hashing, per call.
	const calls = 20000
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		env.Topo(spec.Topo)
	}
	r.set("scenario.env_topo_hit_ns", float64(time.Since(t0).Nanoseconds())/calls)
	keyNS(r, spec)
	if pat, err := env.Pattern(spec.Topo, spec.Pattern, spec.Seed); r.opErr(err, "pattern") {
		tp, _, _ := env.Topo(spec.Topo)
		r.set("traffic.dest_ns", destNS(pat, tp.Endpoints(), r.rng.Uint64()))
	}

	// Single-factor comparisons on a quarter of the window: the engine at
	// Workers 0, 1 and 2 with this workload's collectors, and the
	// collectors switched the other way at this workload's worker count.
	short := shortened(spec)
	variant := func(workers int, collectors string) scenario.Spec {
		v := short
		v.Sim.Workers, v.Sim.Metrics = workers, collectors
		return v
	}
	toggled := allCollectors
	if sz.collectors != "" {
		toggled = ""
	}
	variants := []scenario.Spec{
		variant(0, sz.collectors), variant(1, sz.collectors), variant(2, sz.collectors),
		variant(sz.workers, toggled),
	}
	times := make([][]float64, len(variants))
	waits := obs.NewCounter("sim.barrier_waits")
	var w2Waits int64
	for round := 0; round < 3; round++ {
		for i, v := range variants {
			w0 := waits.Value()
			rep, err := runEngineRep(r.tr, fmt.Sprintf("factor-%d-%d", i, round), env, v)
			if !r.opErr(err, "single-factor rep") {
				return
			}
			if i == 2 {
				w2Waits = waits.Value() - w0
			}
			times[i] = append(times[i], rep.runD.Seconds())
		}
	}
	t := func(i int) float64 { return fastTime(times[i]) }
	r.set("sim.phased_overhead_pct", pctOver(t(1), t(0)))
	r.set("sim.speedup_w2", t(0)/t(2))
	r.set("sim.barrier_waits", float64(w2Waits))
	on, off := t(3), t(sz.workers)
	if sz.collectors != "" {
		on, off = off, on
	}
	r.set("metrics.collector_overhead_pct", pctOver(on, off))
}

// destNS is the host time of one Pattern.Dest call, over every endpoint.
func destNS(pat traffic.Pattern, endpoints int, seed uint64) float64 {
	const passes = 20
	rng := stats.NewRNG(seed)
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for e := 0; e < endpoints; e++ {
			pat.Dest(e, rng)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(passes*endpoints)
}

// phaseTotals reads the engine's own per-phase timers (internal/obs).
func phaseTotals() [3]time.Duration {
	return [3]time.Duration{
		obs.NewTimer("sim.phase.warmup").Total(),
		obs.NewTimer("sim.phase.measure").Total(),
		obs.NewTimer("sim.phase.drain").Total(),
	}
}

// oracleOf is the topology's algebraic routing oracle, nil for kinds
// that have none (route.Select then falls back to tables).
func oracleOf(tp topo.Topology) route.Oracle {
	o, _ := tp.(route.Oracle)
	return o
}
