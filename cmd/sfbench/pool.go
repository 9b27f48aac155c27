package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slimfly/internal/exp"
	"slimfly/internal/obs"
	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/sweep"
)

// gridSize is the Figure 6 grid that fig6_pool runs through the sweep
// pool and service_loopback submits to sfsweepd: the uniform and the
// worst-case pattern, SF under four algorithms against DF and FT-3, at
// the scale bench_test.go uses.
type gridSize struct {
	targetN                int
	loads                  []float64
	warmup, measure, drain int
	collectors             string
	workers                int // pool width and service claim-loop width
	warmChunk              int // pool: warm passes per timed sample
	warmRounds             int // service: warm resubmission rounds per timed sample
	readChunk              int // service: reads per client per timed sample
}

var gridFull = gridSize{
	targetN: 600, loads: []float64{0.2, 0.5, 0.8},
	warmup: 100, measure: 300, drain: 4000,
	collectors: "latency", workers: 2, warmChunk: 50, warmRounds: 5, readChunk: 1000,
}

// specs returns the grid as sweep specs, and as the JSON a client would
// submit: the program under test parses its input like any other.
func (g gridSize) specs(seed uint64) ([]*sweep.Spec, []byte, error) {
	sc := exp.PerfScale{TargetN: g.targetN, Warmup: g.warmup, Measure: g.measure, Drain: g.drain, Loads: g.loads}
	specs := append(exp.Fig6Specs("uniform", sc, seed), exp.Fig6Specs("worstcase", sc, seed)...)
	for _, s := range specs {
		s.Sim.Metrics = g.collectors
	}
	data, err := json.Marshal(specs)
	return specs, data, err
}

// shrunk is the grid at its first load only: the untimed warm-up rep.
func (g gridSize) shrunk() gridSize {
	g.loads = g.loads[:1]
	return g
}

// outcome is what a job result must reproduce exactly, wherever and
// however often it is computed or served.
type outcome struct {
	Key     string     `json:"key"`
	Result  sim.Result `json:"result"`
	Summary string     `json:"summary_sha256"`
}

func outcomes(results []sweep.JobResult) []outcome {
	out := make([]outcome, len(results))
	for i, jr := range results {
		out[i] = outcome{Key: jr.Key, Result: jr.Result, Summary: summaryHash(jr.Metrics)}
	}
	return out
}

// checkGrid applies the output checks every pass over the grid must
// meet, and the Figure 6 orderings the paper reports.
func checkGrid(r *run, what string, results []sweep.JobResult, wantCached bool) {
	find := func(algo, pattern string, load float64) *sweep.JobResult {
		for i := range results {
			j := results[i].Job
			if j.Topo.Kind == "SF" && j.Algo == algo && j.Pattern == pattern && j.Load == load {
				return &results[i]
			}
		}
		return nil
	}
	for _, jr := range results {
		r.op(jr.Err == "" && jr.StoreErr == "" && jr.Cached == wantCached,
			"%s: job %s: err=%q store_err=%q cached=%v (want %v)", what, jr.Job.Label(), jr.Err, jr.StoreErr, jr.Cached, wantCached)
		checkDrained(r, jr.Job.Label(), jr.Result)
	}
	if len(results) == 0 {
		r.op(false, "%s: no results", what)
		return
	}
	lo, hi := results[0].Job.Load, results[0].Job.Load
	for _, jr := range results {
		lo, hi = min(lo, jr.Job.Load), max(hi, jr.Job.Load)
	}
	if a, b := find("min", "worstcase", hi), find("ugal-l", "worstcase", hi); a != nil && b != nil {
		r.op(a.Result.Accepted < b.Result.Accepted,
			"%s: worst-case load %g: SF min accepted %.4f, not less than ugal-l %.4f", what, hi, a.Result.Accepted, b.Result.Accepted)
	}
	if a, b := find("min", "uniform", lo), find("val", "uniform", lo); a != nil && b != nil {
		r.op(a.Result.AvgLatency <= b.Result.AvgLatency,
			"%s: uniform load %g: SF min latency %.2f above val %.2f", what, lo, a.Result.AvgLatency, b.Result.AvgLatency)
	}
}

// gridRef is what fig6_pool and service_loopback pin about the grid.
func gridRef(results []sweep.JobResult) map[string]any {
	var inj, del, cycles int64
	for _, jr := range results {
		inj, del, cycles = inj+jr.Result.Injected, del+jr.Result.Delivered, cycles+jr.Result.TotalCycles
	}
	data, _ := json.Marshal(outcomes(results)) // scalars only: cannot fail
	sum := sha256.Sum256(data)
	return map[string]any{
		"jobs": len(results), "injected": inj, "delivered": del, "total_cycles": cycles,
		"outcomes_sha256": hex.EncodeToString(sum[:]),
	}
}

// poolPass is one pass of the grid through the sweep pool, the way
// cmd/sfsweep runs a spec file: parse, expand, run against the store
// with a fresh Env.
type poolPass struct {
	results  []sweep.JobResult
	stats    sweep.Stats
	wall     time.Duration
	expandD  time.Duration
	elapsed  []float64 // JobResult.Elapsed of executed jobs
	executeD []time.Duration
}

func runPoolPass(tr *tracer, tag string, specJSON []byte, store sweep.Store, workers int) (poolPass, error) {
	var p poolPass
	t0 := time.Now()
	sp := tr.start(tag, "sweep.ParseSpecs")
	specs, err := sweep.ParseSpecs(bytes.NewReader(specJSON))
	sp.end()
	if err != nil {
		return p, err
	}
	sp = tr.start(tag, "sweep.ExpandAll")
	te := time.Now()
	jobs, err := sweep.ExpandAll(specs)
	p.expandD = time.Since(te)
	sp.end()
	if err != nil {
		return p, err
	}
	env := sweep.NewEnv()
	if tr == nil {
		var mu sync.Mutex
		p.results, p.stats, err = sweep.RunJobs(context.Background(), jobs, env, sweep.Options{
			Workers: workers, Store: store,
			OnDone: func(_ int, jr sweep.JobResult) {
				if !jr.Cached {
					mu.Lock()
					p.elapsed = append(p.elapsed, jr.Elapsed)
					mu.Unlock()
				}
			},
		})
		p.wall = time.Since(t0)
		return p, err
	}

	// Traced: the pool's claim loop is replaced by the plainest one, so
	// that every job gets a span around sweep.Execute, the documented
	// claim hook, with the Env resolution split out inside Build and the
	// Store calls timed by the decorator.
	tasks := make([]sweep.Task, len(jobs))
	for i, j := range jobs {
		key := j.Key()
		id := keyID(key)
		tasks[i] = sweep.Task{Job: j, Key: key, Build: func() (sim.Config, error) {
			sp := tr.start(id, "Env.Topo")
			_, _, err := env.Topo(j.Topo)
			sp.end()
			if err != nil {
				return sim.Config{}, err
			}
			sp = tr.start(id, "Env.Pattern")
			_, err = env.Pattern(j.Topo, j.Pattern, j.Seed)
			sp.end()
			if err != nil {
				return sim.Config{}, err
			}
			sp = tr.start(id, "Env.Config")
			defer sp.end()
			return env.Config(j)
		}}
	}
	p.results = make([]sweep.JobResult, len(tasks))
	p.executeD = make([]time.Duration, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) {
					return
				}
				sp := tr.start(keyID(tasks[i].Key), "sweep.Execute")
				p.results[i] = sweep.Execute(tasks[i], store, 0)
				p.executeD[i] = sp.end()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.stats.Total = len(tasks)
	for _, jr := range p.results {
		switch {
		case jr.Err != "":
			p.stats.Failed++
		case jr.Cached:
			p.stats.Cached++
		default:
			p.stats.Executed++
			p.elapsed = append(p.elapsed, jr.Elapsed)
		}
	}
	return p, nil
}

// overheadPct is the share of the workers' wall time that was not spent
// executing jobs: (wall x workers - sum of job time) / (wall x workers).
func overheadPct(wall time.Duration, workers int, elapsed []float64) float64 {
	busy := 0.0
	for _, e := range elapsed {
		busy += e
	}
	avail := wall.Seconds() * float64(workers)
	if avail == 0 {
		return 0
	}
	return (avail - busy) / avail * 100
}

// poolSetup is one set-up from nothing to the first steppable Sim of the
// grid: parse and expand the submitted specs, open a cache, build every
// network and pattern the grid names, sim.New on its first job.
func poolSetup(r *run, id string, specJSON []byte, dir string) (topoD time.Duration, err error) {
	root := r.tr.start(id, "setup")
	defer root.end()
	specs, err := sweep.ParseSpecs(bytes.NewReader(specJSON))
	if err != nil {
		return 0, err
	}
	jobs, err := sweep.ExpandAll(specs)
	if err != nil {
		return 0, err
	}
	if _, err := sweep.OpenCache(dir); err != nil {
		return 0, err
	}
	env := sweep.NewEnv()
	var first sim.Config
	for i, j := range jobs {
		sp := r.tr.start(id, "Env.Topo")
		_, _, err := env.Topo(j.Topo)
		topoD += sp.end()
		if err != nil {
			return 0, err
		}
		cfg, err := env.Config(j)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = cfg
		}
	}
	sp := r.tr.start(id, "sim.New")
	s, err := sim.New(first)
	sp.end()
	if err == nil {
		s.Close()
	}
	return topoD, err
}

// poolRun is one run of fig6_pool.
type poolRun struct {
	r        *run
	g        gridSize
	specJSON []byte
	scratch  string      // parent of every cache directory, removed when the run ends
	ndirs    int         // cache directories made so far
	times    *storeTimes // behind every traced pass, cold and warm
	want     []outcome   // the first cold pass's results: what every later pass must reproduce

	cold, coldTraced []poolPass      // cold passes of plain and of traced cycles
	warmRates        []float64       // jobs per second of each plain warm sample
	hitD             []time.Duration // sweep.Execute times of the traced warm samples
	misses, hits     int64           // what the obs counters saw over one cold and one warm pass
}

func (pr *poolRun) freshDir() string {
	pr.ndirs++
	return filepath.Join(pr.scratch, fmt.Sprint(pr.ndirs))
}

// store is what a pass runs against: the cache itself, or on a traced
// pass the timing decorator around it.
func (pr *poolRun) store(tr *tracer, c *sweep.Cache) sweep.Store {
	if tr == nil {
		return c
	}
	return &timedStore{Store: c, tr: tr, times: pr.times}
}

func poolWorkload(r *run, g gridSize) {
	pr := &poolRun{r: r, g: g, times: &storeTimes{}}
	seed := r.rng.Uint64()
	var err error
	if _, pr.specJSON, err = g.specs(seed); !r.opErr(err, "building the grid") {
		return
	}
	if pr.scratch, err = r.tempDir(); !r.opErr(err, "scratch directory") {
		return
	}
	defer os.RemoveAll(pr.scratch)
	var topoMS []float64
	err = r.setUp(func(i int) (func(), error) {
		d, err := poolSetup(r, fmt.Sprintf("setup-%d", i), pr.specJSON, pr.freshDir())
		topoMS = append(topoMS, ms(d))
		return nil, err
	})
	if !r.opErr(err, "set-up") {
		return
	}
	// Warm-up rep: the grid at one load, cold and then warm.
	if _, warmJSON, err := g.shrunk().specs(seed); r.opErr(err, "warm-up grid") {
		if c, err := sweep.OpenCache(pr.freshDir()); r.opErr(err, "warm-up cache") {
			for i := 0; i < 2; i++ {
				_, err := runPoolPass(nil, "", warmJSON, c, g.workers)
				r.opErr(err, "warm-up pass")
			}
		}
	}

	r.reps(2, pr.cycle)
	if len(pr.cold) == 0 {
		return
	}

	var coldS []float64
	for _, p := range pr.cold {
		coldS = append(coldS, p.wall.Seconds())
	}
	if r.tr == nil {
		r.set("unit_s", fastTime(coldS))
		r.set("work_per_s", fastRate(pr.warmRates))
		return
	}
	var tracedS, expandUS, jobS, overhead []float64
	for _, p := range pr.coldTraced {
		tracedS = append(tracedS, p.wall.Seconds())
		expandUS = append(expandUS, us(p.expandD))
	}
	for _, p := range pr.cold {
		expandUS = append(expandUS, us(p.expandD))
		jobS = append(jobS, p.elapsed...)
		overhead = append(overhead, overheadPct(p.wall, g.workers, p.elapsed))
	}
	r.set("bench.trace_overhead_pct", pctOver(fastTime(tracedS), fastTime(coldS)))
	r.set("scenario.env_topo_ms", median(topoMS))
	r.set("sweep.expand_us", median(expandUS))
	r.set("sweep.job_s.p50", percentile(jobS, 50))
	r.set("sweep.job_s.max", percentile(jobS, 100))
	r.set("sweep.pool_overhead_pct", median(overhead))
	r.set("sweep.store_get_us.p50", percentile(micros(pr.times.hits), 50))
	r.set("sweep.store_get_us.p99", percentile(micros(pr.times.hits), 99))
	r.set("sweep.store_get_miss_us", median(micros(pr.times.misses)))
	r.set("sweep.store_put_us.p50", percentile(micros(pr.times.puts), 50))
	r.set("sweep.store_put_us.p99", percentile(micros(pr.times.puts), 99))
	r.set("sweep.store_entry_bytes", median(pr.times.entryBytes))
	r.set("sweep.execute_hit_us", median(micros(pr.hitD)))
	r.set("sweep.cache_hits", float64(pr.hits))
	r.set("sweep.cache_misses", float64(pr.misses))
	r.set("sweep.jobs_failed", float64(obs.NewCounter("sweep.jobs_failed").Value()))
	keyNS(r, pr.cold[0].results[0].Job)
}

// cycle is one cold pass into an empty cache followed by warm samples
// over the cache it filled, for 3/7 of the time the cold pass took: every
// job a hit, no engine work. One warm sample is warmChunk passes. Cold
// and warm alternate like this, rather than all cold passes first, so
// that both metrics sample the whole run and a slow stretch of the box
// cannot cover all of either. A traced cycle takes one warm sample
// (thousands of hits, enough for the layer metrics).
func (pr *poolRun) cycle(n int, tr *tracer) {
	r := pr.r
	misses, hits := obs.NewCounter("sweep.cache_misses"), obs.NewCounter("sweep.cache_hits")
	c, err := sweep.OpenCache(pr.freshDir())
	if !r.opErr(err, "opening a cache") {
		return
	}
	store := pr.store(tr, c)
	m0 := misses.Value()
	p, err := runPoolPass(tr, fmt.Sprintf("cold-%d", n), pr.specJSON, store, pr.g.workers)
	if !r.opErr(err, "cold pass") {
		return
	}
	pr.misses = misses.Value() - m0
	checkGrid(r, "cold pass", p.results, false)
	if pr.want == nil {
		pr.want = outcomes(p.results)
		r.checkRef(gridRef(p.results))
	} else {
		r.op(slices.Equal(outcomes(p.results), pr.want), "cold pass %d produced different results than pass 1", n)
	}
	if tr == nil {
		pr.cold = append(pr.cold, p)
	} else {
		pr.coldTraced = append(pr.coldTraced, p)
	}

	warmStart := time.Now()
	for sample := 0; sample == 0 || (tr == nil && time.Since(warmStart) < p.wall*3/7); sample++ {
		jobs := 0
		t0 := time.Now()
		for i := 0; i < pr.g.warmChunk; i++ {
			h0 := hits.Value()
			w, err := runPoolPass(tr, fmt.Sprintf("warm-%d-%d-%d", n, sample, i), pr.specJSON, store, pr.g.workers)
			if !r.opErr(err, "warm pass") {
				return
			}
			jobs += len(w.results)
			r.op(w.stats.Cached == len(w.results) && w.stats.Failed == 0,
				"warm pass: %d of %d jobs served from the cache, %d failed", w.stats.Cached, len(w.results), w.stats.Failed)
			pr.hitD = append(pr.hitD, w.executeD...)
			if sample == 0 && i == 0 {
				pr.hits = hits.Value() - h0
				checkGrid(r, "warm pass", w.results, true)
				r.op(slices.Equal(outcomes(w.results), pr.want), "warm results differ from cold")
			}
		}
		if tr == nil {
			pr.warmRates = append(pr.warmRates, float64(jobs)/time.Since(t0).Seconds())
		}
	}
}

// keyNS times scenario.Spec.Key, the content address every store lookup
// starts from.
func keyNS(r *run, j scenario.Spec) {
	const calls = 20000
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		_ = j.Key()
	}
	r.set("scenario.key_ns", float64(time.Since(t0).Nanoseconds())/calls)
}
