// Workloads: drive the simulator with application-level traffic -- the
// stencil, collective, and graph workloads the paper's introduction
// motivates -- and compare Slim Fly against Dragonfly on each.
package main

import (
	"fmt"

	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

func main() {
	sf := roster.MustNear(roster.SF, 600, 1)
	df := roster.MustNear(roster.DF, 600, 1)
	sfTb := route.Build(sf.Graph())
	dfTb := route.Build(df.Graph())
	fmt.Println(topo.Summary(sf))
	fmt.Println(topo.Summary(df))
	fmt.Println()

	type mkPattern func(n int) traffic.Pattern
	workloads := []struct {
		name string
		mk   mkPattern
	}{
		{"stencil-3d", func(n int) traffic.Pattern { return NewStencil3D(n) }},
		{"all-to-all", func(n int) traffic.Pattern { return NewAllToAll(n) }},
		{"allgather-ring", func(n int) traffic.Pattern { return AllGatherRing{N: n} }},
		{"allreduce-rd", func(n int) traffic.Pattern { return NewAllReduceRD(n) }},
		{"graph-zipf", func(n int) traffic.Pattern { return NewGraphZipf(n, 0.7, 42) }},
	}

	run := func(t topo.Topology, tb *route.Tables, p traffic.Pattern) sim.Result {
		s, err := sim.New(sim.Config{
			Topo: t, Router: tb, Algo: sim.UGALL{}, Pattern: p, Load: 0.5,
			Warmup: 1000, Measure: 2500, Seed: 11,
		})
		if err != nil {
			panic(err)
		}
		return s.Run()
	}

	fmt.Printf("%-16s %-10s %-12s %-10s %-9s\n", "workload", "network", "avg_latency", "accepted", "avg_hops")
	for _, w := range workloads {
		// Fresh pattern per run: some generators are stateful.
		rs := run(sf, sfTb, w.mk(sf.Endpoints()))
		rd := run(df, dfTb, w.mk(df.Endpoints()))
		fmt.Printf("%-16s %-10s %-12.2f %-10.4f %-9.3f\n", w.name, "SF", rs.AvgLatency, rs.Accepted, rs.AvgHops)
		fmt.Printf("%-16s %-10s %-12.2f %-10.4f %-9.3f\n", "", "DF", rd.AvgLatency, rd.Accepted, rd.AvgHops)
	}
}
