package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/metrics"
	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// wideRouterWant holds the SHA-256 of each TestWideRouterPinned scenario's
// (Result, MetricsSummary) JSON, in table order, recorded from the commit
// before the allocator walked a bitmask of requested outputs (9f25e64): its
// 0..outputs-1 loops are the reference the mask walk has to reproduce.
var wideRouterWant = [...]string{
	"0e01a8aab3effa6d2bcf8405d976b3933fbdb1a93146b1a3dde20cd20855e31e", // MIN-l0.40-s1
	"58204833fb31bb4f387b48db92a10069a03c0dcf63cbd8c04d1dedfdf2e8a8f3", // MIN-l0.40-s2
	"1279938b1e387032abc984d6eb56ae0f71e3965344d37afd5f8b12440bbafef4", // MIN-l0.95-s1
	"dd3598aa6cedda66d3264d2bca66fe50a0a47ebcc9c85ad1e9cf95fa0e5cc110", // MIN-l0.95-s2
	"ac7bb161e44cfddc46f88b5db85cbe938dbf18254fdd9bc0ec4b1d9faa282ab5", // UGAL-L-l0.40-s1
	"ef8893ac66ffaa9a28b2d856e86a025afe0f3e312691e197175063e4d8813e0f", // UGAL-L-l0.40-s2
	"d0429759d78442ed57beff1cf2289ff0fa2a6267813a5a60c7cfe0093e3603f6", // UGAL-L-l0.95-s1
	"a85e7f9eba1ccbd632d546ea781d435c58c21394949ba15ce53f781ca66fcead", // UGAL-L-l0.95-s2
}

// TestWideRouterPinned steps routers with more than 64 outputs -- SF q=5 with
// 60 endpoints per router, 7 + 60 = 67 ports -- which nothing else in the
// suite does (the paper's q=19 router has 44), so every per-output structure
// that is a word of bits has its second word exercised: requests for ejection
// ports 64..66, and a network that is saturated at both loads. The hashes
// were recorded before the allocator walked an output mask.
func TestWideRouterPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	sf, err := slimfly.NewWithConcentration(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	tb := route.Build(sf.Graph())
	i := 0
	for _, algo := range []Algo{MIN{}, UGALL{}} {
		for _, load := range []float64{0.4, 0.95} {
			for _, speedup := range []int{1, 2} {
				want := wideRouterWant[i]
				i++
				cfg := Config{
					Topo: sf, Router: tb, Algo: algo, Pattern: traffic.Uniform{N: sf.Endpoints()},
					Load: load, Speedup: speedup, Warmup: 10, Measure: 200, Drain: 300,
					Metrics: "latency,channels,fairness", Seed: 0x5f16,
				}
				t.Run(fmt.Sprintf("%s-l%.2f-s%d", algo.Name(), load, speedup), func(t *testing.T) {
					t.Parallel()
					res, sum, err := RunSummary(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Delivered == 0 {
						t.Error("nothing was delivered")
					}
					data, err := json.Marshal(struct {
						Result  Result
						Summary *metrics.Summary
					}{res, sum})
					if err != nil {
						t.Fatal(err)
					}
					h := sha256.Sum256(data)
					if got := hex.EncodeToString(h[:]); got != want {
						t.Errorf("hash %q differs from the pinned literal", got)
					}
				})
			}
		}
	}
}

// TestPortTableMatchesBackend checks the engine's answer against the backend's
// for every router pair, diagonal (-1) included, on every registry kind under
// BFS tables: whatever copy of the port table the engine keeps for itself must
// say what Router.NextPort says.
func TestPortTableMatchesBackend(t *testing.T) {
	for _, kind := range roster.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			tp, err := roster.Near(kind, 96, 1)
			if err != nil {
				t.Fatal(err)
			}
			tb := route.Build(tp.Graph())
			s, err := New(Config{Topo: tp, Router: tb, Algo: MIN{}, Pattern: traffic.Uniform{N: tp.Endpoints()}, Load: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			n := tp.Graph().N()
			if len(s.nextPort) != n*n {
				t.Fatalf("the engine's port table has %d entries for %d routers on a flat-table backend", len(s.nextPort), n)
			}
			for u := 0; u < n; u++ {
				for d := 0; d < n; d++ {
					if got, want := s.PortToward(int32(u), int32(d)), tb.NextPort(u, d); got != want {
						t.Fatalf("PortToward(%d, %d) = %d, backend says %d", u, d, got, want)
					}
				}
			}
			// The reference really says -1 there, so noPort -> -1 was compared.
			if tb.NextPort(0, 0) != -1 {
				t.Fatalf("NextPort(0, 0) = %d, want -1", tb.NextPort(0, 0))
			}
		})
	}
}

// TestPortTableWideRouterFallsBack builds a network whose routers have 255
// network ports -- a 256-router complete graph, one port too many for the
// engine's byte-wide table -- and runs it twice: on BFS tables as they are,
// and on the same tables wrapped so the backend does not advertise
// route.FlatPorter. Both must build, ask the backend per decision and return
// the same Result.
func TestPortTableWideRouterFallsBack(t *testing.T) {
	const n = 256
	var es []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			es = append(es, graph.Edge{U: u, V: v})
		}
	}
	g := graph.MustFromEdges(n, es)
	tp := &topo.Base{TopoName: "K256", G: g, N: n, P: 1, Kp: n - 1, Diam: 1}
	tb := route.Build(g)
	run := func(rt route.Router) Result {
		s, err := New(Config{
			Topo: tp, Router: rt, Algo: MIN{}, Pattern: traffic.Uniform{N: n},
			Load: 0.6, Warmup: 20, Measure: 60, Drain: 200, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if s.nextPort != nil {
			t.Error("the engine built its byte-wide port table for 255-port routers; want the per-decision path")
		}
		return s.Run()
	}
	flat, asked := run(tb), run(struct{ route.Router }{tb})
	if flat != asked {
		t.Errorf("flat-table backend: %+v\nper-decision backend: %+v", flat, asked)
	}
	if flat.Delivered == 0 || flat.AvgHops != 1 {
		t.Errorf("complete graph delivered %d packets over %v hops on average, want some over exactly 1", flat.Delivered, flat.AvgHops)
	}
}
