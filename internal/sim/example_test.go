package sim_test

import (
	"fmt"

	"slimfly/internal/musttest"
	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// A miniature of Figures 6a and 6d: Slim Fly against Dragonfly under
// uniform traffic, then Slim Fly under its worst-case permutation, where
// minimal routing saturates at 1/7 of a flit per endpoint and cycle while
// Valiant's detour keeps accepting what is offered. The windows are
// short (150 warm-up and 300 measured cycles), so a saturated run's
// latency only says that it saturated.
func ExampleSim_Run() {
	sf := musttest.Must(roster.Near(roster.SF, 600, 1))
	df := musttest.Must(roster.Near(roster.DF, 600, 1))
	sfTb := route.Build(sf.Graph())
	dfTb := route.Build(df.Graph())
	fmt.Println(topo.Summary(sf))
	fmt.Println(topo.Summary(df))

	row := func(label string, t topo.Topology, tb *route.Tables, a sim.Algo, p traffic.Pattern, load float64) {
		s, err := sim.New(sim.Config{
			Topo: t, Router: tb, Algo: a, Pattern: p, Load: load,
			Warmup: 150, Measure: 300, Drain: 300, Seed: 7,
		})
		if err != nil {
			panic(err)
		}
		r := s.Run()
		fmt.Printf("%-9s load=%.2f latency=%.2f accepted=%.3f hops=%.2f\n",
			label, load, r.AvgLatency, r.Accepted, r.AvgHops)
	}

	fmt.Println("uniform:")
	for _, load := range []float64{0.2, 0.5} {
		row("SF MIN", sf, sfTb, sim.MIN{}, traffic.Uniform{N: sf.Endpoints()}, load)
		row("SF UGAL-L", sf, sfTb, sim.UGALL{}, traffic.Uniform{N: sf.Endpoints()}, load)
		row("DF UGAL-L", df, dfTb, sim.UGALL{}, traffic.Uniform{N: df.Endpoints()}, load)
	}
	fmt.Println("worst case:")
	wc := traffic.WorstCaseSF(sf, sfTb, 3)
	for _, load := range []float64{0.1, 0.3} {
		row("SF MIN", sf, sfTb, sim.MIN{}, wc, load)
		row("SF VAL", sf, sfTb, sim.VAL{}, wc, load)
		row("SF UGAL-G", sf, sfTb, sim.UGALG{}, wc, load)
	}
	// Output:
	// SF: N=588 endpoints, Nr=98 routers, p=6, k'=11, k=17, D=2
	// DF: N=342 endpoints, Nr=114 routers, p=3, k'=8, k=11, D=3
	// uniform:
	// SF MIN    load=0.20 latency=7.00 accepted=0.200 hops=1.87
	// SF UGAL-L load=0.20 latency=8.22 accepted=0.200 hops=2.23
	// DF UGAL-L load=0.20 latency=10.63 accepted=0.201 hops=3.02
	// SF MIN    load=0.50 latency=9.14 accepted=0.500 hops=1.87
	// SF UGAL-L load=0.50 latency=12.59 accepted=0.500 hops=2.33
	// DF UGAL-L load=0.50 latency=16.02 accepted=0.497 hops=3.22
	// worst case:
	// SF MIN    load=0.10 latency=22.46 accepted=0.095 hops=2.00
	// SF VAL    load=0.10 latency=12.84 accepted=0.099 hops=3.77
	// SF UGAL-G load=0.10 latency=8.75 accepted=0.100 hops=2.41
	// SF MIN    load=0.30 latency=238.54 accepted=0.143 hops=2.00
	// SF VAL    load=0.30 latency=17.74 accepted=0.299 hops=3.77
	// SF UGAL-G load=0.30 latency=27.93 accepted=0.288 hops=2.81
}
