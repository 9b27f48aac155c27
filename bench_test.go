// Package bench holds one benchmark per structural table and figure of
// the paper (Section III: structure; Section IV: routing; Section VI:
// cost/power), plus ablation benches for the design choices called out in
// DESIGN.md. Each benchmark regenerates a reduced-scale version of its
// experiment end to end; cmd/sfexp produces the full tables. The
// simulator-backed figures of Section V are measured by cmd/sfbench's
// fig6_pool workload instead.
package bench

import (
	"fmt"
	"testing"

	"slimfly/internal/cost"
	"slimfly/internal/exp"
	"slimfly/internal/partition"
	"slimfly/internal/resilience"
	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// BenchmarkFig1AverageHops regenerates Figure 1 (average hop count under
// uniform traffic) over the balanced ladders up to 2000 endpoints.
func BenchmarkFig1AverageHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Fig1(200, 2000, 1); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5aMooreBound2 regenerates Figure 5a.
func BenchmarkFig5aMooreBound2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Fig5a(100); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5bMooreBound3 regenerates Figure 5b.
func BenchmarkFig5bMooreBound3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Fig5b(100); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5cBisection regenerates Figure 5c (bisection bandwidth) on
// networks up to ~1200 endpoints.
func BenchmarkFig5cBisection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Fig5c(200, 1200, 2); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Diameter regenerates Table II.
func BenchmarkTable2Diameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Table2(1000, 3); len(tb.Rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable3Disconnection regenerates a reduced Table III
// (disconnection resiliency at N ~ 256, 8 samples per point).
func BenchmarkTable3Disconnection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Table3([]int{256}, 8, 4); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkDiamResil regenerates the Section III-D2 diameter-increase
// study at reduced scale.
func BenchmarkDiamResil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.DiamResil(400, 6, 5); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkAPLResil regenerates the Section III-D3 average-path-length
// study at reduced scale.
func BenchmarkAPLResil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.APLResil(400, 6, 6); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkDFSSSPVCCount regenerates the Section IV-D virtual-channel
// experiment.
func BenchmarkDFSSSPVCCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.VCCounts(7); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkCostModel regenerates Figures 11c/11d (cost and power vs size).
func BenchmarkCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.CostPower(cost.FDR10(), 200, 4000, 14); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4CaseStudy regenerates Table IV.
func BenchmarkTable4CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Table4(15); len(tb.Rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkCableRouterModels regenerates Figures 11a/11b/12a/13a (the fits
// themselves).
func BenchmarkCableRouterModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.CableModels().Rows) == 0 || len(exp.RouterModels().Rows) == 0 {
			b.Fatal("empty model tables")
		}
	}
}

// --- Ablation benches for DESIGN.md's starred design choices ---

// BenchmarkAblationUGALCandidates sweeps the UGAL-L candidate count (the
// paper empirically selects 4 of 2..10).
func BenchmarkAblationUGALCandidates(b *testing.B) {
	sf := slimfly.MustNew(7)
	tb := route.Build(sf.Graph())
	wc := traffic.WorstCaseSF(sf, tb, 3)
	for _, cands := range []int{2, 4, 8} {
		b.Run(string(rune('0'+cands))+"cands", func(b *testing.B) {
			lat := 0.0
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Topo: sf, Router: tb, Algo: sim.UGALL{Candidates: cands},
					Pattern: wc, Load: 0.3,
					Warmup: 300, Measure: 800, Drain: 4000, Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat += s.Run().AvgLatency
			}
			b.ReportMetric(lat/float64(b.N), "avg_latency_cycles")
		})
	}
}

// BenchmarkAblationVAL3Hop compares unconstrained Valiant against the
// 3-hop-constrained variant (Section IV-B: the constraint raises latency).
func BenchmarkAblationVAL3Hop(b *testing.B) {
	sf := slimfly.MustNew(7)
	tb := route.Build(sf.Graph())
	u := traffic.Uniform{N: sf.Endpoints()}
	for _, spec := range []struct {
		name string
		algo sim.Algo
	}{{"VAL4hop", sim.VAL{}}, {"VAL3hop", sim.VAL3{}}} {
		b.Run(spec.name, func(b *testing.B) {
			lat := 0.0
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Topo: sf, Router: tb, Algo: spec.algo, Pattern: u, Load: 0.3,
					Warmup: 300, Measure: 800, Drain: 4000, Seed: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat += s.Run().AvgLatency
			}
			b.ReportMetric(lat/float64(b.N), "avg_latency_cycles")
		})
	}
}

// BenchmarkAblationBufferDepth sweeps the per-port buffering (Figure 8a's
// knob) at a fixed load.
func BenchmarkAblationBufferDepth(b *testing.B) {
	sf := slimfly.MustNew(7)
	tb := route.Build(sf.Graph())
	u := traffic.Uniform{N: sf.Endpoints()}
	for _, buf := range []int{9, 63, 255} {
		b.Run(string(rune('a'+buf%26))+"buf", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Config{
					Topo: sf, Router: tb, Algo: sim.MIN{}, Pattern: u, Load: 0.6,
					BufPerPort: buf, Warmup: 300, Measure: 800, Drain: 4000, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				s.Run()
			}
		})
	}
}

// BenchmarkAblationGeneratorClasses constructs one Slim Fly from each
// delta class (the three MMS generator-set formulas).
func BenchmarkAblationGeneratorClasses(b *testing.B) {
	for _, q := range []int{17, 19, 16} { // delta = +1, -1, 0
		q := q
		b.Run("q"+string(rune('0'+q/10))+string(rune('0'+q%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := slimfly.New(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionRestarts measures bisection quality/cost tradeoff of
// the METIS-substitute partitioner.
func BenchmarkPartitionRestarts(b *testing.B) {
	sf := slimfly.MustNew(11)
	for i := 0; i < b.N; i++ {
		partition.Bisect(sf.Graph(), 4, uint64(i))
	}
}

// BenchmarkResilienceSample measures one disconnect-resiliency analysis.
func BenchmarkResilienceSample(b *testing.B) {
	sf := slimfly.MustNew(7)
	for i := 0; i < b.N; i++ {
		resilience.Analyze(sf.Graph(), resilience.Connected, resilience.Config{Samples: 8, Seed: uint64(i)})
	}
}

// BenchmarkRosterConstruction builds every topology near 1000 endpoints,
// and then alone the Slim Flys the benchmark workloads build most: the
// paper's q=19 at p=15 and the largest order of the build ladder, q=43 at
// p=4 (3 698 routers). These are the graph-construction layer's numbers.
func BenchmarkRosterConstruction(b *testing.B) {
	b.Run("near1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, kind := range roster.Kinds() {
				if _, err := roster.Near(kind, 1000, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, c := range []struct{ q, p int }{{19, 15}, {43, 4}} {
		b.Run(fmt.Sprintf("SF-q%d-p%d", c.q, c.p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := slimfly.NewWithConcentration(c.q, c.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensions regenerates the Section VII future-work study
// (random shortcuts, SF-grouped Dragonfly, expander spectrum).
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := exp.Extensions(5, 16); len(tb.Rows) < 3 {
			b.Fatal("extensions table too small")
		}
	}
}
