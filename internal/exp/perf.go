package exp

import (
	"context"
	"fmt"
	"strings"

	"slimfly/internal/sweep"
	"slimfly/internal/topo/slimfly"
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

// runSpecs executes the expansion of specs on the sweep pool against a
// fresh Env and returns the results in job order, plus the Env so a
// figure can name the networks it built. A cancelled ctx surfaces as the
// context's error; otherwise the first failed job is the error.
func runSpecs(ctx context.Context, specs []*sweep.Spec) ([]sweep.JobResult, *sweep.Env, error) {
	jobs, err := sweep.ExpandAll(specs)
	if err != nil {
		return nil, nil, err
	}
	env := sweep.NewEnv()
	jrs, _, err := sweep.RunJobs(ctx, jobs, env, sweep.Options{})
	if err != nil {
		return nil, nil, err
	}
	for _, jr := range jrs {
		if jr.Err != "" {
			return nil, nil, fmt.Errorf("exp: %s: %s", jr.Job.Label(), jr.Err)
		}
	}
	return jrs, env, nil
}

// endpoints reports the endpoint count of the network env built for t.
func endpoints(env *sweep.Env, t sweep.TopoSpec) (int, error) {
	tp, _, err := env.Topo(t)
	if err != nil {
		return 0, err
	}
	return tp.Endpoints(), nil
}

// Fig6 reproduces one subfigure of Figure 6 (a: uniform, b: bitrev,
// c: shift, d: worstcase): latency and accepted throughput versus offered
// load for SF-MIN, SF-VAL, SF-UGAL-L, SF-UGAL-G, DF-UGAL-L and FT-ANCA.
// It is Fig6Specs with the latency collector selected, run through the
// sweep pool. The tail columns (P50/P99) come from the streaming latency
// histogram -- the paper's latency-vs-load curves are means, but the tail
// is where the protocols separate first.
func Fig6(ctx context.Context, pattern string, sc PerfScale, seed uint64) (*Table, error) {
	specs := Fig6Specs(pattern, sc, seed)
	for _, s := range specs {
		s.Sim.Metrics = "latency"
	}
	jrs, env, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	n := map[string]int{} // endpoints by network kind
	for _, s := range specs {
		if n[s.Topos[0].Kind], err = endpoints(env, s.Topos[0]); err != nil {
			return nil, err
		}
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 6 (%s): latency vs offered load [SF N=%d, DF N=%d, FT N=%d]",
			pattern, n["SF"], n["DF"], n["FT-3"]),
		Columns: []string{"protocol", "load", "avg_latency", "accepted", "avg_hops", "saturated", "p50", "p99"},
	}
	// Jobs expand curve-major (one spec per network kind); the figure
	// reads load-major, the six curves side by side at each load.
	type point struct {
		kind, algo string
		load       float64
	}
	byPoint := make(map[point]sweep.JobResult, len(jrs))
	for _, jr := range jrs {
		byPoint[point{jr.Job.Topo.Kind, jr.Job.Algo, jr.Job.Load}] = jr
	}
	for _, load := range sc.Loads {
		for _, pr := range fig6Protocols {
			jr := byPoint[point{pr.Kind, pr.Algo, load}]
			r, lat := jr.Result, jr.Metrics.Latency
			t.Add(pr.Label, load, r.AvgLatency, r.Accepted, r.AvgHops, r.Saturated, lat.P50, lat.P99)
		}
	}
	return t, nil
}

// Fig8a reproduces Figure 8a: the influence of input buffer size (8..256
// flits per port) on worst-case traffic latency, SF with UGAL-L. It is
// Fig8aSpecs with the channel collector selected: the buffer study runs
// adversarial traffic, and the collector makes the induced hotspot itself
// part of the table.
func Fig8a(ctx context.Context, sc PerfScale, seed uint64) (*Table, error) {
	specs := Fig8aSpecs(sc, seed)
	for _, s := range specs {
		s.Sim.Metrics = "channels"
	}
	jrs, env, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	n, err := endpoints(env, specs[0].Topos[0])
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 8a: buffer-size study (worst-case traffic, SF N=%d, UGAL-L)", n),
		Columns: []string{"buffer_flits", "load", "avg_latency", "accepted", "max_chan_util"},
	}
	for _, jr := range jrs {
		t.Add(jr.Job.Sim.BufPerPort, jr.Job.Load, jr.Result.AvgLatency, jr.Result.Accepted, jr.Metrics.Channels.MaxUtil)
	}
	return t, nil
}

// Fig8be reproduces Figures 8b-8e: oversubscribed Slim Flies (p = 16 and
// p = 18 on the chosen q) under uniform and worst-case traffic, all four
// routing protocols. It is Fig8beSpecs run through the sweep pool.
func Fig8be(ctx context.Context, sc PerfScale, seed uint64) (*Table, error) {
	specs, err := Fig8beSpecs(sc, seed)
	if err != nil {
		return nil, err
	}
	jrs, _, err := runSpecs(ctx, specs)
	if err != nil {
		return nil, err
	}
	q := specs[0].Topos[0].Q
	kp, _, _, _ := slimfly.Params(q)
	t := &Table{
		Title:   fmt.Sprintf("Figure 8b-e: oversubscribed SF (q=%d, balanced p=%d)", q, slimfly.BalancedConcentration(kp)),
		Columns: []string{"p", "pattern", "protocol", "load", "avg_latency", "accepted"},
	}
	for _, jr := range jrs {
		j := jr.Job
		t.Add(j.Topo.P, j.Pattern, strings.ToUpper(j.Algo), j.Load, jr.Result.AvgLatency, jr.Result.Accepted)
	}
	return t, nil
}
