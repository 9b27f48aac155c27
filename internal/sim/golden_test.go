package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"slimfly/internal/metrics"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// TestGoldenResults pins exact fixed-seed results for every routing
// algorithm of the study. Same seed => bit-identical Result is the
// engine's determinism contract and the safety net for hot-path
// refactors: any change to RNG consumption order, arbitration order or
// routing decisions shows up here as a drifted field.
//
// The five table-driven algorithms run on the SlimFly q=5 network; ANCA
// is fat-tree-only and runs on FT-3 arity 6. The static-algorithm values
// were recorded from the pre-port-indexed engine (PR 3) and must never
// change silently. The ANCA values were re-pinned when its allocation-time
// tie-break draws moved from the shared injection stream onto per-router
// PortRNG streams; the five static rows were bit-equal across that change.
type goldenCase struct {
	name string
	tp   topo.Topology
	tb   route.Router
	algo Algo
	want Result
}

// goldenConfig is the fixed scenario every golden case runs under.
func goldenConfig(c goldenCase) Config {
	return Config{
		Topo: c.tp, Router: c.tb, Algo: c.algo,
		Pattern: traffic.Uniform{N: c.tp.Endpoints()},
		Load:    0.3, Warmup: 300, Measure: 800, Drain: 8000,
		Seed: 12345,
	}
}

func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	sf := slimfly.MustNew(5)
	sfTb := route.Build(sf.Graph())
	ft := fattree.MustNew(6)
	ftTb := route.Build(ft.Graph())

	return []goldenCase{
		{name: "MIN", tp: sf, tb: sfTb, algo: MIN{}, want: Result{
			AvgLatency: 7.0977778703375884, MaxLatency: 17, AvgHops: 1.8260824291396798,
			Injected: 48017, Delivered: 48017, Accepted: 0.29993749999999997,
			OfferedLoad: 0.3, ActiveEnds: 200, TotalCycles: 1111,
		}},
		{name: "VAL", tp: sf, tb: sfTb, algo: VAL{}, want: Result{
			AvgLatency: 15.514846743295019, MaxLatency: 51, AvgHops: 3.6289771780776277,
			Injected: 48024, Delivered: 48024, Accepted: 0.30031874999999997,
			OfferedLoad: 0.3, ActiveEnds: 200, TotalCycles: 1122,
		}},
		{name: "VAL3", tp: sf, tb: sfTb, algo: VAL3{}, want: Result{
			AvgLatency: 10.712825007303534, MaxLatency: 27, AvgHops: 2.74625432995284,
			Injected: 47922, Delivered: 47922, Accepted: 0.29973125,
			OfferedLoad: 0.3, ActiveEnds: 200, TotalCycles: 1117,
		}},
		{name: "UGAL-L", tp: sf, tb: sfTb, algo: UGALL{}, want: Result{
			AvgLatency: 8.547750641333138, MaxLatency: 23, AvgHops: 2.214653680105116,
			Injected: 47947, Delivered: 47947, Accepted: 0.29976875,
			OfferedLoad: 0.3, ActiveEnds: 200, TotalCycles: 1115,
		}},
		{name: "UGAL-G", tp: sf, tb: sfTb, algo: UGALG{}, want: Result{
			AvgLatency: 7.1799695497111395, MaxLatency: 20, AvgHops: 1.8484785283750809,
			Injected: 47947, Delivered: 47947, Accepted: 0.299725,
			OfferedLoad: 0.3, ActiveEnds: 200, TotalCycles: 1110,
		}},
		{name: "ANCA", tp: ft, tb: ftTb, algo: FTANCA{FT: ft}, want: Result{
			AvgLatency: 12.673741743597667, MaxLatency: 25, AvgHops: 3.633048785198347,
			Injected: 51778, Delivered: 51778, Accepted: 0.29997685185185186,
			OfferedLoad: 0.3, ActiveEnds: 216, TotalCycles: 1116,
		}},
	}
}

func TestGoldenResults(t *testing.T) {
	for _, c := range goldenCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s, err := New(goldenConfig(c))
			if err != nil {
				t.Fatal(err)
			}
			got := s.Run()
			if got != c.want {
				t.Errorf("fixed-seed result drifted:\n got  %#v\n want %#v", got, c.want)
			}
		})
	}
}

// inline is the subtest suffix of cases that run the engine's one schedule.
// It is the name those cases carried when Config.Workers 0 selected that
// schedule, kept so subtest names stay comparable across test histories.
const inline = "w0"

// TestGoldenResultsParallel pins the goldens under the concurrency the
// engine gets its cores from: w simulations of the same scenario run at
// once on their own goroutines, as sweep pool workers do, sharing the
// topology and the routing tables. Every one must reproduce the golden byte
// for byte, so no Sim writes to state another Sim reads -- the shared
// tables, the topology, a package-level RNG or scratch. The race detector
// run in CI turns any such write into a failure even when the Results
// happen to agree.
func TestGoldenResultsParallel(t *testing.T) {
	for _, sims := range []int{1, 2, 3, 8} {
		for _, c := range goldenCases(t) {
			c, sims := c, sims
			t.Run(fmt.Sprintf("%s/w%d", c.name, sims), func(t *testing.T) {
				t.Parallel()
				got := make([]Result, sims)
				errs := make([]error, sims)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						s, err := New(goldenConfig(c))
						if err != nil {
							errs[i] = err
							return
						}
						got[i] = s.Run()
					}(i)
				}
				wg.Wait()
				for i := range got {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if got[i] != c.want {
						t.Errorf("simulation %d of %d running at once diverged from the golden:\n got  %#v\n want %#v", i, sims, got[i], c.want)
					}
				}
			})
		}
	}
}

// TestCloseIdempotent pins Sim.Close's contract: it may be called any number
// of times, before and after Run, and changes nothing about the run.
func TestCloseIdempotent(t *testing.T) {
	c := goldenCases(t)[0]
	s, err := New(goldenConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if got := s.Run(); got != c.want {
		t.Errorf("Run after Close diverged from the golden:\n got  %#v\n want %#v", got, c.want)
	}
	s.Close()
}

// TestGoldenResultsComputed is the backend half of the parity wall: every
// pinned scenario re-runs on the computed (algebraic) routing backend --
// no flat port table, PortToward answers through the Router interface --
// and must reproduce the tables-backend goldens byte for byte. Distances
// and ports are byte-equal by the route-level parity tests; this pins that
// the engine consumes them identically (same RNG draws, same allocation
// order) whichever backend serves them.
func TestGoldenResultsComputed(t *testing.T) {
	for _, c := range goldenCases(t) {
		c := c
		// Swap the BFS tables for the topology's algebraic oracle; every
		// golden topology (SF q=5, FT-3 arity 6) has one.
		o, ok := c.tp.(route.Oracle)
		if !ok {
			t.Fatalf("%s: golden topology %s has no algebraic oracle", c.name, c.tp.Name())
		}
		c.tb = route.NewComputed(c.tp.Graph(), o)
		t.Run(c.name+"/"+inline, func(t *testing.T) {
			t.Parallel()
			s, err := New(goldenConfig(c))
			if err != nil {
				t.Fatal(err)
			}
			got := s.Run()
			if got != c.want {
				t.Errorf("computed backend diverged from the tables golden:\n got  %#v\n want %#v", got, c.want)
			}
		})
	}
}

// TestShortestDelaysPinned runs the engine at the smallest gap between a
// hop and its flit becoming ready that Config allows: RouterDelay 1 and
// ChannelDelay 1, so a flit granted at cycle c is ready at c+2. No golden
// or generated scenario runs these delays. It is where the order routers
// are visited in within a cycle, and which routers a cycle visits at all,
// are tightest: a router that a hop first touches during a cycle must
// make no request, grant, hook call or RNG draw before the next one. MIN
// and UGAL-L on SF q=5 pin their Result, the SHA-256 of the
// latency,channels,fairness summary and an order-sensitive hash of every
// collector hook call.
func TestShortestDelaysPinned(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	for _, c := range []struct {
		algo    Algo
		want    Result
		summary string
		hooks   uint64
	}{
		{algo: MIN{}, want: Result{
			AvgLatency: 9.159650027445567, MaxLatency: 47, AvgHops: 1.8294216470666511,
			Injected: 60119, Delivered: 60119, Accepted: 0.60133,
			OfferedLoad: 0.6, ActiveEnds: 200, TotalCycles: 718,
		}, summary: "ebb2f423312670d21c83d6b584138aa29397ba5e3bae8a2bb886bb1e3b0136a0", hooks: 0xad791cf3e0d3a3ee},
		{algo: UGALL{}, want: Result{
			AvgLatency: 33.5872491576344, MaxLatency: 170, AvgHops: 2.29873686656597,
			Injected: 60247, Delivered: 60247, Accepted: 0.56782,
			OfferedLoad: 0.6, ActiveEnds: 200, TotalCycles: 808,
		}, summary: "e3e6d0b2e36b291719c6ed278a9e361a6596caaae8a608b17fe392652c42b571", hooks: 0xa55fdb4169545ac5},
	} {
		t.Run(c.algo.Name(), func(t *testing.T) {
			s, err := New(Config{
				Topo: sf, Router: tb, Algo: c.algo,
				Pattern: traffic.Uniform{N: sf.Endpoints()},
				Load:    0.6, Warmup: 200, Measure: 500, Drain: 4000,
				RouterDelay: 1, ChannelDelay: 1, Seed: 4242,
			})
			if err != nil {
				t.Fatal(err)
			}
			stock, err := metrics.NewSet("latency,channels,fairness")
			if err != nil {
				t.Fatal(err)
			}
			seq := &hookHash{}
			s.initMetrics(metrics.SetOf(append(stock.Collectors(), seq)...))
			got := s.Run()
			data, err := json.Marshal(s.MetricsSummary())
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got != c.want {
				t.Errorf("result drifted:\n got  %#v\n want %#v", got, c.want)
			}
			if h := hex.EncodeToString(sum[:]); h != c.summary {
				t.Errorf("summary hash %q, pinned %q", h, c.summary)
			}
			if seq.h != c.hooks {
				t.Errorf("hook-call hash %#x, pinned %#x", seq.h, c.hooks)
			}
		})
	}
}
