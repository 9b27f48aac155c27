package exp

import (
	"fmt"

	"slimfly/internal/cost"
	"slimfly/internal/layout"
	"slimfly/internal/resilience"
	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/topo/random"
	"slimfly/internal/topo/slimfly"
)

// Table3 reproduces Table III: maximum removable link fraction before
// disconnection, for every topology at the given sizes. Samples controls
// the sampling effort per point.
func Table3(sizes []int, samples int, seed uint64) *Table {
	t := &Table{
		Title:   "Table III: disconnection resiliency (max removable link fraction)",
		Columns: []string{"topology", "endpoints", "max_safe_removal"},
	}
	cfg := resilience.Config{Samples: samples, Seed: seed}
	for _, kind := range roster.Kinds() {
		for _, n := range sizes {
			tp, err := roster.Near(kind, n, seed)
			if err != nil {
				continue
			}
			if tp.Routers() > 3000 {
				continue
			}
			res := resilience.Analyze(tp.Graph(), resilience.Connected, cfg)
			t.Add(string(kind), tp.Endpoints(), fmt.Sprintf("%.0f%%", res.MaxSafe*100))
		}
	}
	return t
}

// DiamResil reproduces Section III-D2: resiliency measured as tolerating a
// diameter increase of up to two.
func DiamResil(n, samples int, seed uint64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Section III-D2: diameter-increase resiliency (slack 2, N~%d)", n),
		Columns: []string{"topology", "endpoints", "max_safe_removal"},
	}
	cfg := resilience.Config{Samples: samples, Seed: seed}
	for _, kind := range roster.Kinds() {
		tp, err := roster.Near(kind, n, seed)
		if err != nil || tp.Routers() > 1500 {
			continue
		}
		res := resilience.Analyze(tp.Graph(), resilience.DiameterWithin(2), cfg)
		t.Add(string(kind), tp.Endpoints(), fmt.Sprintf("%.0f%%", res.MaxSafe*100))
	}
	return t
}

// APLResil reproduces Section III-D3: resiliency measured as tolerating an
// average-path-length increase of up to one hop.
func APLResil(n, samples int, seed uint64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Section III-D3: average-path-length resiliency (slack 1, N~%d)", n),
		Columns: []string{"topology", "endpoints", "max_safe_removal"},
	}
	cfg := resilience.Config{Samples: samples, Seed: seed}
	for _, kind := range roster.Kinds() {
		tp, err := roster.Near(kind, n, seed)
		if err != nil || tp.Routers() > 1500 {
			continue
		}
		res := resilience.Analyze(tp.Graph(), resilience.AvgPathWithin(1), cfg)
		t.Add(string(kind), tp.Endpoints(), fmt.Sprintf("%.0f%%", res.MaxSafe*100))
	}
	return t
}

// VCCounts reproduces Section IV-D: virtual channels needed for deadlock
// freedom -- the Gopal hop-indexed scheme (2 minimal / 4 adaptive: the
// longest Minimal and Union path, the engine's default NumVCs for MIN and
// UGAL-L) and the DFSSSP-style layering for SF versus DLN.
func VCCounts(seed uint64) *Table {
	t := &Table{
		Title:   "Section IV-D: virtual channels for deadlock freedom",
		Columns: []string{"network", "endpoints", "scheme", "VCs"},
	}
	for _, q := range []int{5, 7, 9, 11, 13} {
		sf := slimfly.MustNew(q)
		tb := route.Build(sf.Graph())
		t.Add(fmt.Sprintf("SF q=%d", q), sf.Endpoints(), "Gopal-min", route.Minimal.MaxHops(tb.MaxDistance()))
		t.Add(fmt.Sprintf("SF q=%d", q), sf.Endpoints(), "Gopal-adaptive", route.Union.MaxHops(tb.MaxDistance()))
		vl := route.ComputeVCLayering(tb)
		t.Add(fmt.Sprintf("SF q=%d", q), sf.Endpoints(), "DFSSSP-layering", vl.Layers)
	}
	// The paper's DLN comparison points: 338 and 1682 endpoints.
	for _, n := range []int{338, 1682} {
		dln := random.MustNew(n/6+1, 8, 6, seed)
		vl := route.ComputeVCLayering(route.Build(dln.Graph()))
		t.Add(fmt.Sprintf("DLN N=%d", n), dln.Endpoints(), "DFSSSP-layering", vl.Layers)
	}
	return t
}

// CableModels reproduces Figures 11a/12a/13a: the cable cost fits.
func CableModels() *Table {
	t := &Table{
		Title:   "Figures 11a/12a/13a: cable cost models [$/Gb/s]",
		Columns: []string{"model", "length_m", "electric", "optical"},
	}
	models := map[string]cost.Model{"FDR10": cost.FDR10(), "SFP+10G": cost.SFPPlus10G(), "QDR56": cost.QDR56()}
	for _, name := range []string{"FDR10", "SFP+10G", "QDR56"} {
		m := models[name]
		for _, l := range []float64{1, 5, 10, 20, 30} {
			t.Add(name, l, m.ElectricCableCost(l)/m.LinkGbps, m.OpticCableCost(l)/m.LinkGbps)
		}
	}
	return t
}

// RouterModels reproduces Figures 11b/13b: router cost versus radix.
func RouterModels() *Table {
	t := &Table{
		Title:   "Figures 11b/13b: router cost model",
		Columns: []string{"radix", "cost_usd"},
	}
	m := cost.FDR10()
	for _, k := range []int{12, 24, 36, 48, 64, 96, 108} {
		t.Add(k, m.RouterCost(k))
	}
	return t
}

// CostPower reproduces Figures 11c/11d (and 12c/d, 13c/d via the model
// argument): total network cost and power versus size for all topologies.
func CostPower(m cost.Model, minN, maxN int, seed uint64) *Table {
	t := &Table{
		Title:   "Figures 11c/11d: total network cost and power vs size",
		Columns: []string{"topology", "endpoints", "routers", "total_cost_usd", "cost_per_node", "power_W", "power_per_node"},
	}
	for _, kind := range roster.Kinds() {
		for _, n := range roster.BalancedSizes(kind, minN, maxN) {
			tp, err := roster.Near(kind, n, seed)
			if err != nil {
				continue
			}
			b := m.Network(tp, layout.For(tp))
			t.Add(string(kind), tp.Endpoints(), tp.Routers(),
				fmt.Sprintf("%.0f", b.Total), b.CostPerNode,
				fmt.Sprintf("%.0f", b.PowerWatts), b.PowerPerNode)
		}
	}
	return t
}

// Table4 reproduces Table IV: the cost/power case study around the q=19
// Slim Fly (N = 10830, k = 44).
func Table4(seed uint64) *Table {
	t := &Table{
		Title:   "Table IV: cost and power case study (SF q=19 vs comparable networks)",
		Columns: []string{"topology", "endpoints", "routers", "radix", "electric", "fiber", "cost_per_node", "power_per_node"},
	}
	m := cost.FDR10()
	add := func(name string, tpN int, kind roster.Kind) {
		tp, err := roster.Near(kind, tpN, seed)
		if err != nil {
			return
		}
		l := layout.For(tp)
		b := m.Network(tp, l)
		t.Add(name, b.Endpoints, b.Routers, b.Radix, b.Electric, b.Fiber, b.CostPerNode, b.PowerPerNode)
	}
	add("SF", 10830, roster.SF)
	add("DF", 9702, roster.DF)
	add("FT-3", 10648, roster.FT3)
	add("FBF-3", 10000, roster.FBF3)
	add("DLN", 10000, roster.DLN)
	add("T3D", 10648, roster.T3D)
	add("T5D", 10368, roster.T5D)
	add("HC", 8192, roster.HC)
	add("LH-HC", 8192, roster.LHHC)
	return t
}
