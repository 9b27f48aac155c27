package sim

import (
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/route"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// newSteadySim builds a SlimFly simulation at 70% uniform load and
// advances it past warm-up so the network is in steady state: queues
// populated, packet pools and the credit ring at their working sizes.
// metricsSel optionally attaches streaming collectors by registry name;
// the measurement window is forced open so manually stepped cycles
// exercise the full observe path (Hop and Cycle included).
func newSteadySim(tb testing.TB, q, warm int, algo Algo, metricsSel string) *Sim {
	return newSteadySimRouted(tb, q, warm, algo, metricsSel, nil)
}

// newSteadySimRouted is newSteadySim with a pluggable routing backend:
// mkRouter receives the built topology and returns the Router the engine
// should consume (nil means BFS tables, the default backend).
func newSteadySimRouted(tb testing.TB, q, warm int, algo Algo, metricsSel string, mkRouter func(testing.TB, *slimfly.SlimFly) route.Router) *Sim {
	sf := slimfly.MustNew(q)
	var rt route.Router
	if mkRouter != nil {
		rt = mkRouter(tb, sf)
	} else {
		rt = route.Build(sf.Graph())
	}
	s, err := New(Config{
		Topo: sf, Router: rt, Algo: algo, Pattern: traffic.Uniform{N: sf.Endpoints()},
		Load: 0.7, Warmup: 1, Measure: 1, Seed: 17,
		Metrics: metricsSel,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s.windowEnd = 1 << 40 // keep manual steps inside the measurement window
	for i := 0; i < warm; i++ {
		s.step(true)
		s.cycle++
	}
	return s
}

// BenchmarkEngineStep measures the steady-state cost of one simulated
// cycle on a SlimFly q=17 network (578 routers, ~5200 endpoints) at load
// 0.7 — the sweep engine's unit of work — under minimal routing and under
// the paper's headline adaptive scheme. MIN+hist attaches the latency
// histogram and CI gates its overhead over plain MIN at <5% per cycle.
// MIN+trace attaches the sampled packet trace at its default 1-in-1024
// sampling; CI gates its overhead over plain MIN at <5% too (the hot cost
// is one hash per measured grant). MIN+metrics runs the full stock
// collector set (channel counters, series and per-source fairness add
// several hundred KiB of scattered counter increments per cycle, so this
// one is report-only). MIN@computed swaps the BFS tables for the algebraic
// backend (no flat port array, every PortToward answers through the Router
// interface) to price the slow path; MIN@auto routes the backend choice
// through route.Select as the sweep layer does -- at q=17 the table
// estimate is under budget, so it must resolve to tables and CI gates it
// within 5% of plain MIN. Run with -benchmem: every variant must report
// 0 allocs/op (see TestStepZeroAlloc).
func BenchmarkEngineStep(b *testing.B) {
	for _, c := range []struct {
		name    string
		algo    Algo
		metrics string
		router  func(testing.TB, *slimfly.SlimFly) route.Router
	}{
		{"MIN", MIN{}, "", nil},
		{"MIN+hist", MIN{}, "latency", nil},
		{"MIN+trace", MIN{}, "trace", nil},
		{"MIN+metrics", MIN{}, "latency,channels,series,fairness,trace", nil},
		{"UGAL-L", UGALL{}, "", nil},
		{"MIN@computed", MIN{}, "", func(tb testing.TB, sf *slimfly.SlimFly) route.Router {
			return route.NewComputed(sf.Graph(), sf)
		}},
		{"MIN@auto", MIN{}, "", func(tb testing.TB, sf *slimfly.SlimFly) route.Router {
			rt, err := route.Select(sf.Graph(), sf, route.PolicyAuto, 0)
			if err != nil {
				tb.Fatal(err)
			}
			return rt
		}},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			s := newSteadySimRouted(b, 17, 2000, c.algo, c.metrics, c.router)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step(true)
				s.cycle++
			}
		})
	}
}

// TestStepZeroAlloc asserts the engine's zero-allocation contract: once a
// simulation reaches steady state, step() must not touch the heap at all
// — the allocation scratch is preallocated at construction, and the packet
// pools and the credit ring have grown to their working sizes during
// warm-up. Any regression (a fresh slice in the allocator, a credit ring
// still growing) fails this test before it shows up as GC pressure in sweeps. The metrics variant pins
// that the full stock collector set observes every hook (inject, hop,
// deliver) without touching the heap — collector state is fixed at
// Attach, so enabling measurement costs increments, not allocations.
func TestStepZeroAlloc(t *testing.T) {
	zeroAlloc := func(t *testing.T, s *Sim) {
		t.Helper()
		allocs := testing.AllocsPerRun(1000, func() {
			s.step(true)
			s.cycle++
		})
		if allocs != 0 {
			t.Fatalf("steady-state step allocates: %v allocs/op, want 0", allocs)
		}
	}
	t.Run(inline, func(t *testing.T) {
		zeroAlloc(t, newSteadySim(t, 9, 2000, MIN{}, ""))
	})
	t.Run(inline+"+metrics", func(t *testing.T) {
		zeroAlloc(t, newSteadySim(t, 9, 2000, MIN{}, allCollectors))
	})
	// The computed (algebraic) backend has no flat port array, so every
	// PortToward answers through the Router interface -- arithmetic on
	// state prebuilt at construction, which must stay allocation-free
	// exactly like the one-array-load tables path.
	t.Run(inline+"+computed", func(t *testing.T) {
		zeroAlloc(t, newSteadySimRouted(t, 9, 2000, MIN{}, "",
			func(tb testing.TB, sf *slimfly.SlimFly) route.Router {
				return route.NewComputed(sf.Graph(), sf)
			}))
	})
	// Trace attached but sampling cold: with the sampling shift at 63 no
	// packet id ever matches, so every hot-path call is hash + mask +
	// return -- which must stay allocation-free just like the warm path
	// above (the ring is preallocated at Attach either way).
	t.Run(inline+"+trace-cold", func(t *testing.T) {
		s := newSteadySim(t, 9, 2000, MIN{}, "")
		s.initMetrics(metrics.SetOf(metrics.NewTrace(63, 64)))
		zeroAlloc(t, s)
	})
}
