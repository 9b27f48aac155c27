package route_test

// Routing-backend build benchmarks: the cost the algebraic backends
// exist to remove. BenchmarkTablesBuild prices the all-sources level sweep
// (graph.SweepLevels), whose visitor claims ports by neighbour order and
// writes distance, next hop and port in one pass, at the orders the
// workloads build (q=19, 722
// routers, the paper's working point; q=31, 1 922) and at the paper's small
// (q=17, 578) and large (q=43, 3 698 routers) scales -- 9*n*n bytes and
// D*n*k*n/64 word operations, the term that walls off q>43. Run it with
// -cpu 1,2: the workers own contiguous router ranges, and the second figure
// says what a second processor buys. BenchmarkSimNew prices a full simulator
// construction on each backend: at q=43 the tables variant is dominated
// by the table build, while the computed variant only pays generator-set
// membership setup, which is where the >=5x sim.New acceptance claim is
// measured. BenchmarkNextPort prices one lookup through the Router
// interface on each backend: an array load on tables, the MMS closed form
// on computed, flat in q. CI runs these with -benchtime 1x and publishes
// best-of-3 as BENCH_route.json alongside BENCH_engine.json.

import (
	"fmt"
	"testing"

	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/stats"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// benchSF builds the q-order Slim Fly at concentration 4: enough
// endpoints to exercise construction, small enough that router-side
// routing state dominates (what these benchmarks price).
func benchSF(b *testing.B, q int) *slimfly.SlimFly {
	b.Helper()
	sf, err := slimfly.NewWithConcentration(q, 4)
	if err != nil {
		b.Fatal(err)
	}
	return sf
}

func BenchmarkTablesBuild(b *testing.B) {
	for _, q := range []int{17, 19, 31, 43} {
		q := q
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			sf := benchSF(b, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := route.Build(sf.Graph())
				if rt.MaxDistance() != 2 {
					b.Fatal("bad build")
				}
			}
		})
	}
}

func BenchmarkSimNew(b *testing.B) {
	for _, q := range []int{17, 43} {
		for _, backend := range []route.Policy{route.PolicyTables, route.PolicyComputed} {
			q, backend := q, backend
			b.Run(fmt.Sprintf("q%d@%s", q, backend), func(b *testing.B) {
				sf := benchSF(b, q)
				budget := route.EstimateTableBytes(sf.Graph().N()) + 1
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Backend construction is part of the measured cost:
					// this is what every sweep job pays per network.
					rt, err := route.Select(sf.Graph(), sf, backend, budget)
					if err != nil {
						b.Fatal(err)
					}
					// Lean queue parameters (as the q=43 scale tests use), so
					// the measured delta is routing state, not packet buffers.
					_, err = sim.New(sim.Config{
						Topo: sf, Router: rt, Algo: sim.MIN{},
						Pattern: traffic.Uniform{N: sf.Endpoints()},
						Load:    0.1, Warmup: 10, Measure: 10, Seed: 1,
						NumVCs: 2, BufPerPort: 8,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNextPort times Router.NextPort over seeded router pairs. One
// op is a batch of 65536 lookups -- enough distinct pairs that the tables
// are read from memory, not from a cache-resident corner -- and the
// per-lookup cost is reported as ns/lookup, so the -benchtime 1x CI run
// still averages over a batch.
func BenchmarkNextPort(b *testing.B) {
	const batch = 1 << 16
	for _, q := range []int{19, 43} {
		sf := benchSF(b, q)
		g := sf.Graph()
		rng := stats.NewRNG(uint64(q))
		pairs := make([][2]int32, batch)
		for i := range pairs {
			pairs[i] = [2]int32{int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))}
		}
		for _, backend := range []route.Policy{route.PolicyTables, route.PolicyComputed} {
			b.Run(fmt.Sprintf("%s/q%d", backend, q), func(b *testing.B) {
				rt, err := route.Select(g, sf, backend, route.EstimateTableBytes(g.N())+1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var sink int32
				for i := 0; i < b.N; i++ {
					for _, p := range pairs {
						sink += rt.NextPort(int(p[0]), int(p[1]))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/lookup")
				if sink == -int32(b.N*batch) {
					b.Fatal("every lookup answered -1")
				}
			})
		}
	}
}
