package sim

import (
	"math"
	"strings"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/topo/dragonfly"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

func run(t *testing.T, tp topo.Topology, tb *route.Tables, algo Algo, pat traffic.Pattern, load float64) Result {
	t.Helper()
	s, err := New(Config{
		Topo: tp, Router: tb, Algo: algo, Pattern: pat, Load: load,
		Warmup: 500, Measure: 1500, Drain: 8000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	base := Config{Topo: sf, Router: tb, Algo: MIN{}, Pattern: traffic.Uniform{N: sf.Endpoints()}}
	for _, load := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		cfg := base
		cfg.Load = load
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "[0,1]") {
			t.Errorf("load %v: err = %v, want the [0,1] range error", load, err)
		}
	}
	// Credit counters are 16-bit: a deeper VC buffer must be refused, not
	// wrapped.
	deep := base
	deep.NumVCs, deep.BufPerPort = 2, 2*(math.MaxInt16+1)
	if _, err := New(deep); err == nil || !strings.Contains(err.Error(), "per VC") {
		t.Errorf("%d flits per VC: err = %v, want the depth-limit error", math.MaxInt16+1, err)
	}
	deep.BufPerPort = 2 * 300
	if s, err := New(deep); err != nil || s.bufPerVC != 300 {
		t.Errorf("300 flits per VC rejected: %v", err)
	}
	// VC indices travel in int8 fields: more than 127 VCs must be refused, not
	// wrapped into another port's credits.
	manyVCs := base
	manyVCs.NumVCs, manyVCs.BufPerPort = 200, 200
	if _, err := New(manyVCs); err == nil || !strings.Contains(err.Error(), "NumVCs 200 exceeds") {
		t.Errorf("200 VCs: err = %v, want the VC-limit error", err)
	}
	manyVCs.NumVCs, manyVCs.BufPerPort = 127, 127
	if _, err := New(manyVCs); err != nil {
		t.Errorf("127 VCs rejected: %v", err)
	}
	// Credit due cycles are int32 like the packet stamps: a credit delay that
	// would wrap them must be refused, not return credits in the past.
	slow := base
	slow.CreditDelay = math.MaxInt32
	if _, err := New(slow); err == nil || !strings.Contains(err.Error(), "int32 cycle-stamp range") {
		t.Errorf("CreditDelay %d: err = %v, want the cycle-stamp range error", slow.CreditDelay, err)
	}
	// Zero means "default"; a negative count or delay must be refused by
	// name, not panic in make, nor return credits early, nor run with ReadyAt
	// stamps in the past.
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"NumVCs", func(c *Config) { c.NumVCs = -1 }},
		{"BufPerPort", func(c *Config) { c.BufPerPort = -64 }},
		{"RouterDelay", func(c *Config) { c.RouterDelay = -2 }},
		{"ChannelDelay", func(c *Config) { c.ChannelDelay = -1 }},
		{"CreditDelay", func(c *Config) { c.CreditDelay = -1 }},
		{"CreditDelay", func(c *Config) { c.CreditDelay = -5 }},
		{"Speedup", func(c *Config) { c.Speedup = -1 }},
		{"Warmup", func(c *Config) { c.Warmup = -1 }},
		{"Measure", func(c *Config) { c.Measure = -1 }},
		{"Drain", func(c *Config) { c.Drain = -1 }},
	} {
		cfg := base
		c.set(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "negative "+c.field) {
			t.Errorf("negative %s: err = %v, want an error naming the field", c.field, err)
		}
	}
}

// TestSingleRouterNetwork: on a network of one router the routing diameter
// is 0, so MIN needs no VCs; the engine still gives each port one and
// delivers every packet straight through the ejection port.
func TestSingleRouterNetwork(t *testing.T) {
	g := graph.MustFromEdges(1, nil)
	one := &topo.Base{TopoName: "one", G: g, N: 4, P: 4}
	res, err := Run(Config{Topo: one, Router: route.Build(g), Algo: MIN{}, Pattern: traffic.Uniform{N: 4},
		Load: 0.3, Warmup: 50, Measure: 100, Drain: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 || res.Delivered != res.Injected || res.AvgHops != 0 || res.Saturated {
		t.Errorf("one router: %+v, want every injected packet delivered in 0 hops", res)
	}
}

// wideTopo hangs every endpoint off router 0, giving it more ports than the
// head cache's 16-bit port field can name.
type wideTopo struct {
	topo.Topology
	n int
}

func (w wideTopo) Endpoints() int         { return w.n }
func (wideTopo) EndpointRouter(e int) int { return 0 }
func (w wideTopo) RouterEndpoints(r int) []int {
	if r != 0 {
		return nil
	}
	eps := make([]int, w.n)
	for e := range eps {
		eps[e] = e
	}
	return eps
}

func TestTooManyPortsRejected(t *testing.T) {
	sf := slimfly.MustNew(5)
	wide := wideTopo{Topology: sf, n: 1 << 16}
	_, err := New(Config{Topo: wide, Router: route.Build(sf.Graph()), Algo: MIN{}, Pattern: traffic.Uniform{N: wide.n}, Load: 0.1})
	if err == nil || !strings.Contains(err.Error(), "router 0") || !strings.Contains(err.Error(), "ports") {
		t.Fatalf("router with >= 2^16 ports: err = %v, want a descriptive port-count error", err)
	}
}

// TestHeadStatePacking pins the head-cache word at the edges of each field:
// ReadyAt up to New's cycle-stamp limit, ports up to 2^16-1, hops up to the
// int8 maximum, none bleeding into a neighbour.
func TestHeadStatePacking(t *testing.T) {
	for _, readyAt := range []int32{0, 1, 1<<31 - 1 - 1<<20} {
		for _, port := range []int32{0, 1, 65535} {
			for _, hops := range []int8{0, 1, 127} {
				ra, p, h := unpackHead(packHead(readyAt, port, hops))
				if ra != readyAt || p != port || h != hops {
					t.Errorf("unpackHead(packHead(%d, %d, %d)) = (%d, %d, %d)", readyAt, port, hops, ra, p, h)
				}
			}
		}
	}
}

func TestMINUniformLowLoad(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	res := run(t, sf, tb, MIN{}, traffic.Uniform{N: sf.Endpoints()}, 0.1)
	if res.Saturated {
		t.Fatal("saturated at 10% load")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Zero-load latency is a few pipeline stages; at 10% it must stay low.
	if res.AvgLatency > 25 {
		t.Errorf("latency %v too high for 10%% load", res.AvgLatency)
	}
	// Slim Fly diameter 2: average hops in (1, 2].
	if res.AvgHops <= 1 || res.AvgHops > 2.01 {
		t.Errorf("avg hops = %v, want (1,2]", res.AvgHops)
	}
	// Accepted throughput tracks offered load away from saturation.
	if res.Accepted < 0.08 || res.Accepted > 0.12 {
		t.Errorf("accepted = %v, want ~0.1", res.Accepted)
	}
}

func TestMINUniformHighLoad(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	res := run(t, sf, tb, MIN{}, traffic.Uniform{N: sf.Endpoints()}, 0.7)
	// The balanced SF sustains high uniform load under minimal routing.
	if res.Accepted < 0.6 {
		t.Errorf("accepted = %v at 0.7 offered, want >= 0.6", res.Accepted)
	}
}

func TestVALDoublesPathLength(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	min := run(t, sf, tb, MIN{}, traffic.Uniform{N: sf.Endpoints()}, 0.1)
	val := run(t, sf, tb, VAL{}, traffic.Uniform{N: sf.Endpoints()}, 0.1)
	if val.AvgHops <= min.AvgHops+0.5 {
		t.Errorf("VAL hops %v not clearly above MIN hops %v", val.AvgHops, min.AvgHops)
	}
	if val.AvgLatency <= min.AvgLatency {
		t.Errorf("VAL latency %v <= MIN latency %v at low load", val.AvgLatency, min.AvgLatency)
	}
}

func TestVALSaturatesBelowHalf(t *testing.T) {
	// Section V-A: VAL "saturates at less than 50% of the injection rate
	// because it doubles the pressure on all links".
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	res := run(t, sf, tb, VAL{}, traffic.Uniform{N: sf.Endpoints()}, 0.8)
	if res.Accepted > 0.60 {
		t.Errorf("VAL accepted %v at 0.8 offered; paper says < ~0.5", res.Accepted)
	}
}

func TestUGALLFollowsMINAtLowLoad(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	res := run(t, sf, tb, UGALL{}, traffic.Uniform{N: sf.Endpoints()}, 0.1)
	// With empty queues UGAL-L picks the minimal path: hops near MIN's.
	if res.AvgHops > 2.3 {
		t.Errorf("UGAL-L avg hops %v at low load, want near minimal", res.AvgHops)
	}
	if res.Saturated {
		t.Error("saturated at 10%")
	}
}

func TestUGALGWorstCaseBeatsMIN(t *testing.T) {
	// Figure 6d: on the adversarial pattern MIN is limited to ~1/(p+1)
	// while VAL/UGAL sustain 40-45%.
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	wc := traffic.WorstCaseSF(sf, tb, 7)
	minRes := run(t, sf, tb, MIN{}, wc, 0.35)
	ugalRes := run(t, sf, tb, UGALG{}, wc, 0.35)
	if ugalRes.Accepted <= minRes.Accepted {
		t.Errorf("UGAL-G accepted %v <= MIN %v on worst-case", ugalRes.Accepted, minRes.Accepted)
	}
	// MIN throughput collapses: ~1/(p+1) = 0.2 for p=4.
	if minRes.Accepted > 0.33 {
		t.Errorf("MIN accepted %v on worst-case, want collapse toward ~0.2", minRes.Accepted)
	}
}

func TestFatTreeANCA(t *testing.T) {
	ft := fattree.MustNew(6) // 216 endpoints
	tb := route.Build(ft.Graph())
	res := run(t, ft, tb, FTANCA{FT: ft}, traffic.Uniform{N: ft.Endpoints()}, 0.4)
	if res.Saturated {
		t.Fatal("fat tree saturated at 40% uniform")
	}
	if res.Accepted < 0.35 {
		t.Errorf("accepted %v, want ~0.4", res.Accepted)
	}
	// Max hops in FT-3 is 4.
	if res.AvgHops > 4.01 {
		t.Errorf("avg hops %v > 4", res.AvgHops)
	}
}

func TestDragonflyUGAL(t *testing.T) {
	df := dragonfly.MustNew(2) // 144 endpoints
	tb := route.Build(df.Graph())
	res := run(t, df, tb, UGALL{}, traffic.Uniform{N: df.Endpoints()}, 0.3)
	if res.Saturated {
		t.Fatal("DF saturated at 30%")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestDeterminism runs each case twice and wants equal Results: UGAL-L below
// and under congestion, and ANCA, whose allocation-time tie-breaks draw from
// the per-router PortRNG streams.
func TestDeterminism(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	ft := fattree.MustNew(4)
	for _, cfg := range []Config{
		{
			Topo: sf, Router: tb, Algo: UGALL{}, Pattern: traffic.Uniform{N: sf.Endpoints()},
			Load: 0.3, Warmup: 300, Measure: 700, Seed: 9,
		},
		{
			Topo: sf, Router: tb, Algo: UGALL{}, Pattern: traffic.Uniform{N: sf.Endpoints()},
			Load: 0.6, Warmup: 200, Measure: 500, Drain: 6000, Seed: 99,
		},
		{
			Topo: ft, Router: route.Build(ft.Graph()), Algo: FTANCA{FT: ft}, Pattern: traffic.Uniform{N: ft.Endpoints()},
			Load: 0.5, Warmup: 200, Measure: 500, Drain: 6000, Seed: 99,
		},
	} {
		mk := func() Result {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s.Run()
		}
		if a, b := mk(), mk(); a != b {
			t.Errorf("%s at load %v: non-deterministic results:\n%+v\n%+v", cfg.Algo.Name(), cfg.Load, a, b)
		}
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	lo := run(t, sf, tb, MIN{}, traffic.Uniform{N: sf.Endpoints()}, 0.05)
	hi := run(t, sf, tb, MIN{}, traffic.Uniform{N: sf.Endpoints()}, 0.75)
	if hi.AvgLatency <= lo.AvgLatency {
		t.Errorf("latency did not grow with load: %v -> %v", lo.AvgLatency, hi.AvgLatency)
	}
}

func TestPermutationPatternInSim(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	res := run(t, sf, tb, MIN{}, traffic.BitReversal(sf.Endpoints()), 0.2)
	if res.ActiveEnds != 128 { // 2^7 <= 200
		t.Errorf("active = %d, want 128", res.ActiveEnds)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestBufferSizeTradeoff(t *testing.T) {
	// Figure 8a: bigger buffers enable higher bandwidth under the
	// worst-case pattern; smaller buffers propagate backpressure more
	// stiffly, capping the latency packets accumulate inside the network.
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	wc := traffic.WorstCaseSF(sf, tb, 7)
	mk := func(buf int, load float64) Result {
		s, err := New(Config{
			Topo: sf, Router: tb, Algo: UGALL{}, Pattern: wc, Load: load,
			BufPerPort: buf, Warmup: 500, Measure: 1500, Drain: 6000, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	// Bandwidth at a stressed load: big buffers should accept at least as
	// much traffic as tiny ones.
	smallHi, bigHi := mk(12, 0.4), mk(192, 0.4)
	if bigHi.Accepted < smallHi.Accepted-0.02 {
		t.Errorf("big-buffer accepted %v < small-buffer %v under stress",
			bigHi.Accepted, smallHi.Accepted)
	}
	// Far below saturation the buffer size barely matters.
	smallLo, bigLo := mk(12, 0.05), mk(192, 0.05)
	diff := smallLo.AvgLatency - bigLo.AvgLatency
	if diff > 15 || diff < -15 {
		t.Errorf("low-load latency differs too much across buffers: %v vs %v",
			smallLo.AvgLatency, bigLo.AvgLatency)
	}
}
