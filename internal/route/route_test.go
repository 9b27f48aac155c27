package route_test

import (
	"fmt"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/graphtest"
	"slimfly/internal/route"
	"slimfly/internal/topo/random"
	"slimfly/internal/topo/slimfly"
)

func TestTablesRing(t *testing.T) {
	g := graphtest.Ring(8)
	tb := route.Build(g)
	if tb.Distance(0, 4) != 4 {
		t.Errorf("dist(0,4) = %d", tb.Distance(0, 4))
	}
	if tb.Distance(0, 0) != 0 {
		t.Errorf("dist(0,0) = %d", tb.Distance(0, 0))
	}
	if tb.MaxDistance() != 4 {
		t.Errorf("max distance = %d", tb.MaxDistance())
	}
	// Next hop from 0 toward 2 must be 1 (the only minimal direction).
	if nh := tb.NextHop(0, 2); nh != 1 {
		t.Errorf("next(0,2) = %d, want 1", nh)
	}
	if nh := tb.NextHop(3, 3); nh != -1 {
		t.Errorf("next(3,3) = %d, want -1", nh)
	}
}

func TestPathProperties(t *testing.T) {
	sf := slimfly.MustNew(5)
	tb := route.Build(sf.Graph())
	n := sf.Routers()
	for u := 0; u < n; u += 7 {
		for d := 0; d < n; d += 5 {
			p := []int32{int32(u)}
			for cur := u; cur != d; {
				cur = int(tb.NextHop(cur, d))
				p = append(p, int32(cur))
			}
			if int(p[0]) != u || int(p[len(p)-1]) != d {
				t.Fatalf("path(%d,%d) endpoints wrong: %v", u, d, p)
			}
			if len(p)-1 != tb.Distance(u, d) {
				t.Fatalf("path(%d,%d) length %d != dist %d", u, d, len(p)-1, tb.Distance(u, d))
			}
			for i := 0; i+1 < len(p); i++ {
				if !sf.Graph().HasEdge(int(p[i]), int(p[i+1])) {
					t.Fatalf("path(%d,%d) has non-edge %d-%d", u, d, p[i], p[i+1])
				}
			}
		}
	}
	// Slim Fly diameter 2: all distances <= 2.
	if tb.MaxDistance() != 2 {
		t.Errorf("SF max distance = %d", tb.MaxDistance())
	}
}

func TestDistanceSymmetry(t *testing.T) {
	sf := slimfly.MustNew(7)
	tb := route.Build(sf.Graph())
	n := sf.Routers()
	for u := 0; u < n; u += 3 {
		for d := u; d < n; d += 11 {
			if tb.Distance(u, d) != tb.Distance(d, u) {
				t.Fatalf("asymmetric distance (%d,%d)", u, d)
			}
		}
	}
}

func TestValiantLen(t *testing.T) {
	g := graphtest.Ring(8)
	tb := route.Build(g)
	// s=0 via r=2 to d=4: 2 + 2 = 4 hops.
	if got := tb.ValiantLen(0, 2, 4); got != 4 {
		t.Errorf("valiant len = %d, want 4", got)
	}
}

func TestDisconnectedTables(t *testing.T) {
	tb := route.Build(graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}))
	if tb.Distance(0, 2) != -1 {
		t.Errorf("dist across components = %d, want -1", tb.Distance(0, 2))
	}
	if tb.NextHop(0, 2) != -1 {
		t.Errorf("next hop across components = %d, want -1", tb.NextHop(0, 2))
	}
}

// TestVCLayeringSlimFly reproduces the Section IV-D result: Slim Fly's
// DFSSSP-style layering needs very few VCs (the paper's OFED DFSSSP used 3
// for all SF networks).
func TestVCLayeringSlimFly(t *testing.T) {
	for _, q := range []int{5, 7} {
		sf := slimfly.MustNew(q)
		tb := route.Build(sf.Graph())
		vl := route.ComputeVCLayering(tb)
		if vl.Layers < 1 || vl.Layers > 4 {
			t.Errorf("q=%d: SF layering needs %d VCs, want 1-4 (paper: 3)", q, vl.Layers)
		}
		if len(vl.ByDest) != sf.Routers() {
			t.Errorf("q=%d: ByDest length %d", q, len(vl.ByDest))
		}
		for _, l := range vl.ByDest {
			if l < 0 || l >= vl.Layers {
				t.Fatalf("q=%d: destination layer %d out of range", q, l)
			}
		}
	}
}

// TestVCLayeringDLNWorse checks the relative result of Section IV-D: random
// DLN topologies need more VC layers than Slim Fly.
func TestVCLayeringDLNWorse(t *testing.T) {
	sf := slimfly.MustNew(5)
	sfVC := route.ComputeVCLayering(route.Build(sf.Graph())).Layers
	dln := random.MustNew(50, 3, 4, 11)
	dlnVC := route.ComputeVCLayering(route.Build(dln.Graph())).Layers
	if dlnVC < sfVC {
		t.Errorf("DLN layering (%d) needs fewer VCs than SF (%d); paper reports the opposite", dlnVC, sfVC)
	}
}

func TestVCLayeringRingNeedsLayers(t *testing.T) {
	// Minimal routing on a ring has cyclic channel dependencies, so more
	// than one layer is required.
	tb := route.Build(graphtest.Ring(8))
	vl := route.ComputeVCLayering(tb)
	if vl.Layers < 2 {
		t.Errorf("ring layering = %d, want >= 2", vl.Layers)
	}
}

func BenchmarkBuildTablesQ19(b *testing.B) {
	sf := slimfly.MustNew(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.Build(sf.Graph())
	}
}

func BenchmarkVCLayeringQ5(b *testing.B) {
	tb := route.Build(slimfly.MustNew(5).Graph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.ComputeVCLayering(tb)
	}
}

// TestDiameterLimit: distances are int8, so a graph of diameter 128 or more
// is refused by name -- an error from Select, a panic with the same text
// from Build -- where it used to wrap (a 300-ring reported MaxDistance 127
// and Distance(0, 150) == -106). Diameter exactly 127 still builds.
func TestDiameterLimit(t *testing.T) {
	const text = "route: graph diameter exceeds 127, the int8 distance tables' limit"
	for _, g := range []*graph.Graph{graphtest.Ring(300), graphtest.Path(129)} {
		if rt, err := route.Select(g, nil, route.PolicyAuto, 0); err == nil || err.Error() != text || rt != nil {
			t.Errorf("Select on a %d-router graph of diameter >= 128: a router = %v, error %v; want none and %q", g.N(), rt != nil, err, text)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != text {
					t.Errorf("Build on a %d-router graph of diameter >= 128 panicked with %v, want %q", g.N(), r, text)
				}
			}()
			route.Build(g)
		}()
	}
	rt, err := route.Select(graphtest.Path(128), nil, route.PolicyTables, 0)
	if err != nil {
		t.Fatalf("a path of diameter 127 was refused: %v", err)
	}
	if rt.MaxDistance() != 127 || rt.Distance(0, 127) != 127 || rt.Distance(127, 1) != 126 || rt.NextHop(0, 127) != 1 {
		t.Errorf("diameter-127 path: MaxDistance %d, Distance(0,127) %d, Distance(127,1) %d, NextHop(0,127) %d",
			rt.MaxDistance(), rt.Distance(0, 127), rt.Distance(127, 1), rt.NextHop(0, 127))
	}
}
