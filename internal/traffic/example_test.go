package traffic_test

import (
	"fmt"

	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/stats"
	"slimfly/internal/topo/slimfly"
)

// halo is a user-written traffic.Pattern: the halo exchange of a 3D
// stencil on an x*y*z grid of ranks, each packet to one of its rank's
// up to six face neighbours. Endpoints beyond the grid send nothing.
type halo struct{ x, y, z int }

func (h halo) Name() string { return "halo3d" }

func (h halo) Dest(src int, rng *stats.RNG) int {
	if src >= h.x*h.y*h.z {
		return -1
	}
	i, j, k := src%h.x, src/h.x%h.y, src/(h.x*h.y)
	steps := [...]struct {
		ok   bool
		dest int
	}{
		{i > 0, src - 1}, {i < h.x-1, src + 1},
		{j > 0, src - h.x}, {j < h.y-1, src + h.x},
		{k > 0, src - h.x*h.y}, {k < h.z-1, src + h.x*h.y},
	}
	var nb [6]int
	n := 0
	for _, s := range steps {
		if s.ok {
			nb[n] = s.dest
			n++
		}
	}
	return nb[rng.Intn(n)]
}

// Any Pattern drives the simulator: a 5*5*7 stencil on the 200-endpoint
// Slim Fly leaves 25 endpoints idle, and accepted load is per active one.
// Minimal routing carries the halo at 0.3 flits per endpoint and cycle
// but not at 0.5.
func ExamplePattern() {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	for _, load := range []float64{0.3, 0.5} {
		s, err := sim.New(sim.Config{
			Topo: sf, Router: tb, Algo: sim.MIN{}, Pattern: halo{5, 5, 7},
			Load: load, Warmup: 300, Measure: 600, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		r := s.Run()
		fmt.Printf("load=%.1f active=%d accepted=%.3f hops=%.3f latency=%.1f\n",
			load, r.ActiveEnds, r.Accepted, r.AvgHops, r.AvgLatency)
	}
	// Output:
	// load=0.3 active=175 accepted=0.299 hops=1.326 latency=5.6
	// load=0.5 active=175 accepted=0.464 hops=1.330 latency=51.9
}
