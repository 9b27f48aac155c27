package resilience

import (
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/graphtest"
	"slimfly/internal/topo/dragonfly"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/topo/torus"
)

func TestConnectedMetric(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if !Connected(g, Baseline{}) {
		t.Error("path graph reported disconnected")
	}
	g = graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if Connected(g, Baseline{}) {
		t.Error("split graph reported connected")
	}
}

func TestDiameterAndAvgPathMetrics(t *testing.T) {
	ring := graphtest.Ring(8)
	base := Baseline{Diameter: 4, AvgDist: 16.0 / 7.0}
	if !DiameterWithin(2)(ring, base) {
		t.Error("intact ring fails diameter metric")
	}
	// Removing one ring edge makes it a path: diameter 7 > 4+2.
	cut := graph.MustFromEdges(8, ring.Edges()[1:]) // all but {0,1}
	if DiameterWithin(2)(cut, base) {
		t.Error("path of 8 within ring diameter +2")
	}
	if !DiameterWithin(3)(cut, base) {
		t.Error("path of 8 should pass with slack 3")
	}
	if AvgPathWithin(0.5)(cut, base) {
		t.Error("path avg (3) within ring avg (2.29) + 0.5")
	}
	if !AvgPathWithin(1.0)(cut, base) {
		t.Error("path avg should pass with slack 1.0")
	}
}

func TestRingFragile(t *testing.T) {
	// A ring disconnects with any 2 removed edges: survival should
	// collapse immediately.
	res := Analyze(graphtest.Ring(40), Connected, Config{Samples: 16, Seed: 1})
	if res.MaxSafe > 0.051 {
		t.Errorf("ring MaxSafe = %v, want ~0.05 at most", res.MaxSafe)
	}
}

func TestSlimFlyHighlyResilient(t *testing.T) {
	// Table III: SF tolerates 45% removals at N=256 scale and more when
	// larger. The q=5 SF (50 routers, 175 links) should comfortably
	// survive 30%+.
	sf := slimfly.MustNew(5)
	res := Analyze(sf.Graph(), Connected, Config{Samples: 24, Seed: 2})
	if res.MaxSafe < 0.30 {
		t.Errorf("SF q=5 MaxSafe = %v, want >= 0.30", res.MaxSafe)
	}
}

func TestSlimFlyBeatsTorusOnDisconnection(t *testing.T) {
	// Table III's relative ordering: SF is far more resilient than T3D at
	// comparable size.
	sf := slimfly.MustNew(5) // 50 routers
	tor := torus.MustNew([]int{4, 4, 3}, 1)
	cfg := Config{Samples: 24, Seed: 3}
	sfRes := Analyze(sf.Graph(), Connected, cfg)
	torRes := Analyze(tor.Graph(), Connected, cfg)
	if sfRes.MaxSafe <= torRes.MaxSafe {
		t.Errorf("SF MaxSafe %v <= T3D MaxSafe %v; Table III says SF wins", sfRes.MaxSafe, torRes.MaxSafe)
	}
}

func TestSlimFlyAtLeastAsResilientAsDragonfly(t *testing.T) {
	// Section III-D1: SF is more link-failure tolerant than comparable DF.
	sf := slimfly.MustNew(5)   // 50 routers, k'=7
	df := dragonfly.MustNew(2) // 72 routers, degree 5
	cfg := Config{Samples: 24, Seed: 4}
	sfRes := Analyze(sf.Graph(), Connected, cfg)
	dfRes := Analyze(df.Graph(), Connected, cfg)
	if sfRes.MaxSafe+0.051 < dfRes.MaxSafe {
		t.Errorf("SF MaxSafe %v clearly below DF %v", sfRes.MaxSafe, dfRes.MaxSafe)
	}
}

func TestSurvivalMonotoneish(t *testing.T) {
	sf := slimfly.MustNew(5)
	res := Analyze(sf.Graph(), Connected, Config{Samples: 16, Seed: 5})
	if len(res.Fractions) == 0 {
		t.Fatal("no fractions tested")
	}
	// Survival at the first increment should be 1.0 for a dense SF.
	if res.Survival[0] < 0.99 {
		t.Errorf("survival at 5%% = %v", res.Survival[0])
	}
	// And the last tested point should be the collapse region.
	last := res.Survival[len(res.Survival)-1]
	if last > 0.5 && res.Fractions[len(res.Fractions)-1] < 0.9 {
		t.Errorf("analysis stopped early with survival %v", last)
	}
}

func TestDeterminism(t *testing.T) {
	sf := slimfly.MustNew(5)
	a := Analyze(sf.Graph(), Connected, Config{Samples: 8, Seed: 42})
	b := Analyze(sf.Graph(), Connected, Config{Samples: 8, Seed: 42})
	if a.MaxSafe != b.MaxSafe {
		t.Errorf("non-deterministic: %v vs %v", a.MaxSafe, b.MaxSafe)
	}
	for i := range a.Survival {
		if a.Survival[i] != b.Survival[i] {
			t.Fatal("survival curves differ")
		}
	}
}
