package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// newCase is one way of building a simulator on SF q for the New tests and
// benchmark: an algorithm on one routing backend.
type newCase struct {
	name   string
	algo   Algo
	router func(*slimfly.SlimFly) route.Router
}

var newCases = []newCase{
	{"MIN@tables", MIN{}, func(sf *slimfly.SlimFly) route.Router { return route.Build(sf.Graph()) }},
	{"UGAL-L@computed", UGALL{}, func(sf *slimfly.SlimFly) route.Router { return route.NewComputed(sf.Graph(), sf) }},
}

func (c newCase) config(q int) Config {
	sf := slimfly.MustNew(q)
	return Config{Topo: sf, Router: c.router(sf), Algo: c.algo, Pattern: traffic.Uniform{N: sf.Endpoints()}, Load: 0.5}
}

// TestNewAllocsIndependentOfSize pins that New carves every per-router array
// out of one slab: it makes as many allocations for the 722 routers of SF
// q=19 as for the 50 of q=5. (AllocsPerRun's warm-up call builds the
// topology's endpoint lists, which later calls reuse.) The collector is off
// while it counts: a GC cycle that a bigger network happens to trigger
// makes a runtime allocation of its own.
func TestNewAllocsIndependentOfSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range newCases {
		t.Run(c.name, func(t *testing.T) {
			var allocs []float64
			for _, q := range []int{5, 19} {
				cfg := c.config(q)
				allocs = append(allocs, testing.AllocsPerRun(3, func() {
					if _, err := New(cfg); err != nil {
						t.Fatal(err)
					}
				}))
			}
			if allocs[0] != allocs[1] {
				t.Errorf("New makes %v allocations at q=5 and %v at q=19, want the same", allocs[0], allocs[1])
			}
		})
	}
}

// TestReversePortsFromAdjacency checks what New reads off the sorted
// adjacency instead of asking the routing backend, on every registry kind
// under BFS tables and, where the kind has a routing oracle, under the
// computed backend too: router r's port i faces port NextPort(nbr[i], r) of
// its neighbour, each network input queue refills the very counter of that
// port and VC, and each router has one ejection port per attached endpoint,
// which epIdx numbers in the topology's ascending order.
func TestReversePortsFromAdjacency(t *testing.T) {
	for _, kind := range roster.Kinds() {
		tp, err := roster.Near(kind, 96, 1)
		if err != nil {
			t.Fatal(err)
		}
		backends := []route.Router{route.Build(tp.Graph())}
		if o, ok := tp.(route.Oracle); ok {
			backends = append(backends, route.NewComputed(tp.Graph(), o))
		}
		for _, rtr := range backends {
			t.Run(fmt.Sprintf("%s@%s", kind, rtr.Backend()), func(t *testing.T) {
				s, err := New(Config{Topo: tp, Router: rtr, Algo: MIN{}, Pattern: traffic.Uniform{N: tp.Endpoints()}, Load: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				nv := s.cfg.NumVCs
				for r := range s.routers {
					rt := &s.routers[r]
					for i, nb := range rt.nbr {
						p := rtr.NextPort(int(nb), r)
						if rt.revPort[i] != p {
							t.Fatalf("router %d port %d: revPort %d, NextPort(%d, %d) = %d", r, i, rt.revPort[i], nb, r, p)
						}
						for v := range nv {
							if &s.credits[rt.upCred[i*nv+v]] != &s.routers[nb].credits[int(p)*nv+v] {
								t.Fatalf("router %d input %d VC %d refills credits[%d], not router %d's port %d counter", r, i, v, rt.upCred[i*nv+v], nb, p)
							}
						}
					}
					var want []int
					for e := range tp.Endpoints() {
						if tp.EndpointRouter(e) == r {
							want = append(want, e)
						}
					}
					got := tp.RouterEndpoints(r)
					if !slices.Equal(got, want) {
						t.Fatalf("RouterEndpoints(%d) = %v, want %v", r, got, want)
					}
					if eps := len(rt.rr) - len(rt.nbr); eps != len(got) {
						t.Fatalf("router %d has %d ejection ports, the topology %d endpoints", r, eps, len(got))
					}
					for i, e := range got {
						if s.epRouter[e] != int32(r) || s.epIdx[e] != int32(i) {
							t.Fatalf("router %d endpoint %d: epRouter = %d, epIdx = %d, want %d and %d", r, e, s.epRouter[e], s.epIdx[e], r, i)
						}
					}
				}
			})
		}
	}
}

// TestPoolsFollowUse pins that packet memory follows use: New gives no router
// a pool slot, and after a run the pools' summed capacity is at most twice
// their summed peak of buffered flits (the slots Run publishes as
// sim.queue_slots) plus one slot per router. The runs are build_ladder's
// 25-cycle smoke on SF q=19 p=4 and UGAL-L at load 0.3 on the same network.
func TestPoolsFollowUse(t *testing.T) {
	sf, err := slimfly.NewWithConcentration(19, 4)
	if err != nil {
		t.Fatal(err)
	}
	tables := route.Build(sf.Graph())
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"MIN smoke", Config{Algo: MIN{}, Load: 0.1, Warmup: 5, Measure: 15, Drain: 5}},
		{"UGAL-L", Config{Algo: UGALL{}, Load: 0.3, Warmup: 200, Measure: 200}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Topo, cfg.Router, cfg.Pattern, cfg.Seed = sf, tables, traffic.Uniform{N: sf.Endpoints()}, 1
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r := range s.routers {
				if n := cap(s.routers[r].pkts); n != 0 {
					t.Fatalf("New gives router %d %d pool slots, want none", r, n)
				}
			}
			if res := s.Run(); res.Delivered == 0 {
				t.Fatalf("the run delivered nothing: %+v", res)
			}
			peak, slots := 0, 0
			for r := range s.routers {
				peak += len(s.routers[r].pkts)
				slots += cap(s.routers[r].pkts)
			}
			if slots > 2*peak+len(s.routers) {
				t.Errorf("pools hold %d slots for a summed peak of %d flits on %d routers, want at most %d", slots, peak, len(s.routers), 2*peak+len(s.routers))
			}
			t.Logf("%d slots for a summed peak of %d flits", slots, peak)
		})
	}
}

// BenchmarkNew measures New at the paper's SF q=19 under MIN on BFS tables
// and UGAL-L on the computed backend. Each iteration starts with the OS
// memory released, outside the timer, as sfbench's set-up samples do.
//
//	go test -run xxx -bench BenchmarkNew -benchmem ./internal/sim
func BenchmarkNew(b *testing.B) {
	for _, c := range newCases {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.config(19)
			if _, err := New(cfg); err != nil { // builds the endpoint lists
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				debug.FreeOSMemory()
				b.StartTimer()
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
