// Command sfgen constructs a topology and prints its structural properties,
// its Section VI cost and power, or exports its edge list.
//
// Usage:
//
//	sfgen -topo SF -n 10830            # balanced config near N endpoints, priced
//	sfgen -topo DF -n 9702 -cables sfp10g
//	sfgen -topo SF -q 19 -p 18         # Slim Fly by field order (oversubscribed p)
//	sfgen -topo DF -n 9702 -edges      # dump router edge list
//	sfgen -orders                      # list valid Slim Fly orders
//	sfgen -list                        # registered scenario names
package main

import (
	"flag"
	"fmt"
	"os"

	"slimfly/internal/cost"
	"slimfly/internal/export"
	"slimfly/internal/layout"
	"slimfly/internal/route"
	"slimfly/internal/scenario"
	"slimfly/internal/topo"
	"slimfly/internal/topo/slimfly"
)

func main() {
	var (
		kind   = flag.String("topo", "SF", "topology kind (see -list)")
		n      = flag.Int("n", 1000, "target endpoint count")
		q      = flag.Int("q", 0, "Slim Fly field order (overrides -n for SF)")
		p      = flag.Int("p", 0, "Slim Fly concentration override (needs -q)")
		seed   = flag.Uint64("seed", 1, "seed for randomized topologies")
		cables = flag.String("cables", "fdr10", "cable model for the cost and power lines: fdr10 sfp10g qdr56")
		edges  = flag.Bool("edges", false, "print the router edge list")
		asJSON = flag.Bool("json", false, "print the full topology description as JSON")
		orders = flag.Bool("orders", false, "list valid Slim Fly orders up to 128")
		list   = flag.Bool("list", false, "list registered topologies, algos and patterns")
	)
	flag.Parse()

	if *list {
		fmt.Print(scenario.ListText())
		return
	}

	if *orders {
		for _, qq := range slimfly.ValidOrders(3, 128) {
			kp, nr, delta, _ := slimfly.Params(qq)
			p := slimfly.BalancedConcentration(kp)
			fmt.Printf("q=%-4d delta=%+d  k'=%-4d p=%-3d k=%-4d Nr=%-6d N=%d\n",
				qq, delta, kp, p, kp+p, nr, p*nr)
		}
		return
	}

	model, ok := map[string]func() cost.Model{"fdr10": cost.FDR10, "sfp10g": cost.SFPPlus10G, "qdr56": cost.QDR56}[*cables]
	if !ok {
		fmt.Fprintf(os.Stderr, "sfgen: unknown cable model %q (fdr10, sfp10g or qdr56)\n", *cables)
		os.Exit(2)
	}

	ts := scenario.TopoSpec{Kind: *kind, N: *n, Q: *q, P: *p, Seed: *seed}.Canonical()
	t, err := scenario.Topology(ts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sfgen:", err)
		os.Exit(1)
	}

	if *asJSON {
		if err := export.WriteJSON(os.Stdout, t); err != nil {
			fmt.Fprintln(os.Stderr, "sfgen:", err)
			os.Exit(1)
		}
		return
	}

	if *edges {
		for _, e := range t.Graph().Edges() {
			fmt.Printf("%d %d\n", e.U, e.V)
		}
		return
	}

	fmt.Println(topo.Summary(t))
	st := t.Graph().AllPairsStats()
	fmt.Printf("measured: diameter=%d avg_router_distance=%.4f edges=%d connected=%v\n",
		st.Diameter, st.AvgDist, t.Graph().EdgeCount(), st.Connected)
	nr := t.Graph().N()
	fmt.Printf("routing:  table_bytes=%d (9*n*n, n=%d routers) algebraic=%v\n",
		route.EstimateTableBytes(nr), nr, scenario.Algebraic(ts.Kind))

	l := layout.For(t)
	b := model().Network(t, l)
	fmt.Printf("racks:            %d\n", l.Racks)
	fmt.Printf("electric cables:  %d (incl. %d endpoint uplinks)\n", b.Electric, l.EndpointCables)
	fmt.Printf("fiber cables:     %d\n", b.Fiber)
	fmt.Printf("router cost:      $%.0f\n", b.RouterCost)
	fmt.Printf("cable cost:       $%.0f\n", b.CableCost)
	fmt.Printf("total cost:       $%.0f  ($%.0f per endpoint)\n", b.Total, b.CostPerNode)
	fmt.Printf("power:            %.0f W  (%.2f W per endpoint)\n", b.PowerWatts, b.PowerPerNode)
}
