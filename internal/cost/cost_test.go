package cost

import (
	"testing"

	"slimfly/internal/layout"
	"slimfly/internal/musttest"
	"slimfly/internal/topo/dragonfly"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/topo/torus"
)

func TestCableCostFits(t *testing.T) {
	m := FDR10()
	// Figure 13a fits at length 1 m, 40 Gb/s.
	if got, want := m.ElectricCableCost(1), (0.4079+0.5771)*40; !near(got, want) {
		t.Errorf("electric 1m = %v, want %v", got, want)
	}
	if got, want := m.OpticCableCost(10), (0.0919*10+2.7452)*40; !near(got, want) {
		t.Errorf("optic 10m = %v, want %v", got, want)
	}
}

func TestRouterCostFit(t *testing.T) {
	m := FDR10()
	if got, want := m.RouterCost(43), 350.4*43-892.3; !near(got, want) {
		t.Errorf("router k=43 = %v, want %v", got, want)
	}
	if m.RouterCost(1) != 0 {
		t.Error("negative router cost not clamped")
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

// TestTableIVSlimFly reproduces the headline Table IV column: the q=19
// Slim Fly (N=10830, 722 routers). The paper reports $1,033/node and
// 8.02 W/node; our measured layout lands in the same band (the paper's
// cable inventory excludes endpoint uplinks and differs slightly in rack
// geometry -- sfexp -exp table4 prints the whole comparison).
func TestTableIVSlimFly(t *testing.T) {
	sf := slimfly.MustNew(19)
	b := FDR10().Network(sf, layout.For(sf))
	if b.Routers != 722 || b.Endpoints != 10830 {
		t.Fatalf("wrong network: %+v", b)
	}
	if b.Radix != 44 {
		t.Errorf("radix = %d, want 44", b.Radix)
	}
	if b.CostPerNode < 900 || b.CostPerNode > 1300 {
		t.Errorf("cost/node = %v, want in [900, 1300] (paper: 1033)", b.CostPerNode)
	}
	if b.PowerPerNode < 7.5 || b.PowerPerNode > 8.8 {
		t.Errorf("power/node = %v, want ~8.0-8.2 (paper: 8.02)", b.PowerPerNode)
	}
}

// TestSlimFlyCheaperThanDragonfly reproduces the paper's headline claim:
// ~25% cost and power advantage over a comparable Dragonfly (Section
// VI-B4: DF with comparable N and k uses 990 routers vs SF's 722).
func TestSlimFlyCheaperThanDragonfly(t *testing.T) {
	sf := slimfly.MustNew(19)              // N=10830, k=44
	df := musttest.Must(dragonfly.New(11)) // a=22,h=11,g=243 -> N=58806: too big; use comparable-N below
	_ = df
	// Balanced DF with N closest to 10830: p=7 gives N=9702 (the paper's
	// simulated DF).
	df7 := musttest.Must(dragonfly.New(7))
	m := FDR10()
	sfB := m.Network(sf, layout.For(sf))
	dfB := m.Network(df7, layout.For(df7))
	if sfB.CostPerNode >= dfB.CostPerNode {
		t.Errorf("SF cost/node %v >= DF %v", sfB.CostPerNode, dfB.CostPerNode)
	}
	if sfB.PowerPerNode >= dfB.PowerPerNode {
		t.Errorf("SF power/node %v >= DF %v", sfB.PowerPerNode, dfB.PowerPerNode)
	}
	// Power advantage band: paper says SF is >25% more energy-efficient;
	// DF p=7 runs at ~10.9 W/node vs SF 8.0-8.2.
	if ratio := sfB.PowerPerNode / dfB.PowerPerNode; ratio > 0.85 {
		t.Errorf("SF/DF power ratio %v, want <= 0.85", ratio)
	}
}

// TestLowRadixTopologiesMoreExpensive reproduces Table IV's low-radix
// columns: tori cost more per node than SF at comparable size because of
// p=1 concentration.
func TestLowRadixTopologiesMoreExpensive(t *testing.T) {
	sf := slimfly.MustNew(19)
	tor := musttest.Must(torus.New([]int{22, 22, 22}, 1)) // N=10648 ~ comparable
	m := FDR10()
	sfB := m.Network(sf, layout.For(sf))
	torB := m.Network(tor, layout.For(tor))
	if torB.CostPerNode <= sfB.CostPerNode {
		t.Errorf("T3D cost/node %v <= SF %v; Table IV says T3D is pricier", torB.CostPerNode, sfB.CostPerNode)
	}
	if torB.PowerPerNode <= sfB.PowerPerNode {
		t.Errorf("T3D power/node %v <= SF %v", torB.PowerPerNode, sfB.PowerPerNode)
	}
}

func TestPowerModel(t *testing.T) {
	// 4 lanes * 0.7 W = 2.8 W per used port; a K2 of two degree-1 routers
	// with one endpoint each has 4 used ports.
	sf := slimfly.MustNew(5)
	b := FDR10().Network(sf, layout.For(sf))
	// 50 routers, degree 7 + 4 endpoints = 11 used ports each.
	want := 50 * 11 * 2.8
	if !near(b.PowerWatts, want) {
		t.Errorf("power = %v, want %v", b.PowerWatts, want)
	}
}

func TestAlternativeCableModels(t *testing.T) {
	sf := slimfly.MustNew(9)
	lay := layout.For(sf)
	base := FDR10().Network(sf, lay)
	for _, m := range []Model{SFPPlus10G(), QDR56()} {
		b := m.Network(sf, lay)
		if b.Total <= 0 {
			t.Errorf("model %+v gives non-positive total", m)
		}
		// Router costs identical across cable variants (paper holds
		// routers fixed at IB FDR10).
		if !near(b.RouterCost, base.RouterCost) {
			t.Errorf("router cost changed across cable models")
		}
	}
}
