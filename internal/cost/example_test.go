package cost_test

import (
	"fmt"
	"sort"

	"slimfly/internal/cost"
	"slimfly/internal/layout"
	"slimfly/internal/roster"
)

// Planning a network of about 10K endpoints (Section VI): every
// topology kind is laid out in racks, its cables counted, and priced and
// powered with the InfiniBand FDR10 model. Slim Fly is the cheapest per
// endpoint.
func ExampleModel_Network() {
	const target = 10500
	m := cost.FDR10()

	type plan struct {
		kind  roster.Kind
		racks int
		b     cost.Breakdown
	}
	var plans []plan
	for _, kind := range roster.Kinds() {
		t, err := roster.Near(kind, target, 1)
		if err != nil {
			continue
		}
		l := layout.For(t)
		plans = append(plans, plan{kind, l.Racks, m.Network(t, l)})
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].b.CostPerNode < plans[j].b.CostPerNode })

	fmt.Printf("%-6s %6s %7s %5s %5s %8s %6s %6s %6s\n",
		"topo", "N", "routers", "radix", "racks", "electric", "fiber", "$/node", "W/node")
	for _, p := range plans {
		fmt.Printf("%-6s %6d %7d %5d %5d %8d %6d %6.0f %6.2f\n",
			p.kind, p.b.Endpoints, p.b.Routers, p.b.Radix, p.racks,
			p.b.Electric, p.b.Fiber, p.b.CostPerNode, p.b.PowerPerNode)
	}
	best := plans[0].b
	fmt.Printf("cheapest: %s, $%.1fM and %.0f kW for %d endpoints\n",
		plans[0].kind, best.Total/1e6, best.PowerWatts/1e3, best.Endpoints)
	// Output:
	// topo        N routers radix racks electric  fiber $/node W/node
	// SF      10830     722    44    19    14801   6498   1099   8.21
	// DF       9702    1386    27    99    18711   4851   1371  10.80
	// FBF-3   10000    1000    37   100    14500   9000   1382  10.36
	// DLN     10500    1750    26   146    12182  15816   1636  12.13
	// T3D     10648   10648     7   333    42592      0   1902  19.60
	// FT-3    10648    1452    44    33    21296  10648   2194  14.00
	// T5D     10584   10584    11   331    63504      0   3663  30.80
	// HC       8192    8192    14   256    28672  32768   4675  39.20
	// LH-HC    8192    8192    21   256    28672  61440   7700  58.80
	// cheapest: SF, $11.9M and 89 kW for 10830 endpoints
}
