package exp

import (
	"fmt"

	"slimfly/internal/scenario"
	"slimfly/internal/sweep"
	"slimfly/internal/topo/slimfly"
)

// This file is the definition of the simulator-backed experiments of
// Section V: each figure is a group of declarative sweep specs. Fig6,
// Fig8a and Fig8be (perf.go) run them through the sweep pool and print
// the table; cmd/sfsweep, sfsweepd and the sfworker fleet run the same
// specs cached and resumable. Jobs are seeded from the spec's seed list
// only -- a job's cache key depends on its own content, never on its
// position in the grid, or editing one axis would invalidate every
// sibling point. Each topology is paired with its own protocol set, so a
// figure is a spec group rather than one cross product.

// fig6Protocols lists the six compared curves of Figure 6 in
// presentation order: display label, network kind and routing algorithm.
var fig6Protocols = []struct {
	Label, Kind, Algo string
}{
	{"SF-MIN", "SF", "min"},
	{"SF-VAL", "SF", "val"},
	{"SF-UGAL-L", "SF", "ugal-l"},
	{"SF-UGAL-G", "SF", "ugal-g"},
	{"DF-UGAL-L", "DF", "ugal-l"},
	{"FT-ANCA", "FT-3", "anca"},
}

// Figure 8a sweeps per-port buffering over moderate worst-case loads. The
// grid names the flits per port the engine buffers: it gives each VC
// ⌊buf/VCs⌋ of them, and UGAL-L resolves 4 VCs on a Slim Fly, so every
// entry is a multiple of 4 and each row's label is the depth it ran at.
var (
	fig8aBuffers = []int{8, 16, 32, 60, 128, 252}
	fig8aLoads   = []float64{0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
)

// Figures 8b-e run the four Slim Fly protocols on each traffic pattern's
// own load grid: worst-case traffic saturates far earlier than uniform.
var (
	fig8beAlgos    = []string{"min", "val", "ugal-l", "ugal-g"}
	fig8bePatterns = []struct {
		Name  string
		Loads []float64
	}{
		{"uniform", []float64{0.2, 0.4, 0.6, 0.8}},
		{"worstcase", []float64{0.1, 0.2, 0.3, 0.4, 0.5}},
	}
)

// Fig6Specs returns the Figure 6 load-latency sweep for one traffic
// pattern: SF under MIN/VAL/UGAL-L/UGAL-G, DF under UGAL-L and FT-3 under
// ANCA, across the scale's load grid. One spec per network kind, algos in
// fig6Protocols order.
func Fig6Specs(pattern string, sc PerfScale, seed uint64) []*sweep.Spec {
	sim := sweep.SimParams{Warmup: sc.Warmup, Measure: sc.Measure, Drain: sc.Drain}
	var kinds []string
	algosByKind := map[string][]string{}
	for _, p := range fig6Protocols {
		if _, seen := algosByKind[p.Kind]; !seen {
			kinds = append(kinds, p.Kind)
		}
		algosByKind[p.Kind] = append(algosByKind[p.Kind], p.Algo)
	}
	var specs []*sweep.Spec
	for _, kind := range kinds {
		specs = append(specs, &sweep.Spec{
			Name:     fmt.Sprintf("fig6-%s-%s", pattern, kind),
			Topos:    []sweep.TopoSpec{{Kind: kind, N: sc.TargetN}},
			Algos:    algosByKind[kind],
			Patterns: []string{pattern},
			Loads:    sc.Loads,
			Seeds:    []uint64{seed},
			Sim:      sim,
		})
	}
	return specs
}

// Fig8aSpecs returns the Figure 8a buffer-size study as sweep specs: one
// spec per buffer depth (the buffer size lives in SimParams, which is a
// per-spec constant), SF under UGAL-L on worst-case traffic.
func Fig8aSpecs(sc PerfScale, seed uint64) []*sweep.Spec {
	var specs []*sweep.Spec
	for _, buf := range fig8aBuffers {
		specs = append(specs, &sweep.Spec{
			Name:     fmt.Sprintf("fig8a-buf%d", buf),
			Topos:    []sweep.TopoSpec{{Kind: "SF", N: sc.TargetN}},
			Algos:    []string{"ugal-l"},
			Patterns: []string{"worstcase"},
			Loads:    fig8aLoads,
			Seeds:    []uint64{seed},
			Sim: sweep.SimParams{
				Warmup: sc.Warmup, Measure: sc.Measure, Drain: sc.Drain,
				BufPerPort: buf,
			},
		})
	}
	return specs
}

// Fig8beSpecs returns the Figure 8b-e oversubscription study as sweep
// specs: one spec per (concentration, pattern), on the Slim Fly order the
// scale's TargetN selects. The paper studies p = 16 and 18 on q = 19
// (balanced p = 15); other orders oversubscribe by the same +1 and +3.
func Fig8beSpecs(sc PerfScale, seed uint64) ([]*sweep.Spec, error) {
	base, err := scenario.Topology(sweep.TopoSpec{Kind: "SF", N: sc.TargetN})
	if err != nil {
		return nil, err
	}
	sf := base.(*slimfly.SlimFly)
	var specs []*sweep.Spec
	for _, p := range []int{sf.Concentration() + 1, sf.Concentration() + 3} {
		for _, pat := range fig8bePatterns {
			specs = append(specs, &sweep.Spec{
				Name:     fmt.Sprintf("fig8be-p%d-%s", p, pat.Name),
				Topos:    []sweep.TopoSpec{{Kind: "SF", Q: sf.Q, P: p}},
				Algos:    fig8beAlgos,
				Patterns: []string{pat.Name},
				Loads:    pat.Loads,
				Seeds:    []uint64{seed},
				Sim:      sweep.SimParams{Warmup: sc.Warmup, Measure: sc.Measure, Drain: sc.Drain},
			})
		}
	}
	return specs, nil
}
