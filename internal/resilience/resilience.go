// Package resilience implements the link-failure study of Section III-D:
// random cables are removed in 5% increments, with enough samples for a
// tight confidence interval, and three survival metrics are evaluated --
// disconnection, diameter increase, and average-path-length increase.
package resilience

import (
	"runtime"
	"sync"

	"slimfly/internal/graph"
	"slimfly/internal/stats"
)

// Metric decides whether a degraded graph still "survives" relative to the
// intact baseline.
type Metric func(degraded *graph.Graph, baseline Baseline) bool

// Baseline captures the intact graph's properties once.
type Baseline struct {
	Diameter int
	AvgDist  float64
}

// Connected is the disconnection metric of Section III-D1.
func Connected(g *graph.Graph, _ Baseline) bool { return g.IsConnected() }

// DiameterWithin returns a metric tolerating an increase of `slack` in
// diameter (the paper uses slack = 2, Section III-D2). A disconnected graph
// fails.
func DiameterWithin(slack int) Metric {
	return func(g *graph.Graph, b Baseline) bool {
		st := g.AllPairsStats()
		return st.Connected && st.Diameter <= b.Diameter+slack
	}
}

// AvgPathWithin returns a metric tolerating an increase of `slack` hops in
// the average path length (the paper uses slack = 1, Section III-D3).
func AvgPathWithin(slack float64) Metric {
	return func(g *graph.Graph, b Baseline) bool {
		st := g.AllPairsStats()
		return st.Connected && st.AvgDist <= b.AvgDist+slack
	}
}

// Config controls the sampling.
type Config struct {
	Samples    int     // trials per removal fraction (default 32)
	Step       float64 // removal increment (default 0.05 as in the paper)
	SurviveFrc float64 // fraction of samples that must survive (default 0.5)
	Seed       uint64
}

func (c Config) withDefaults() Config {
	if c.Samples == 0 {
		c.Samples = 32
	}
	if c.Step == 0 {
		c.Step = 0.05
	}
	if c.SurviveFrc == 0 {
		c.SurviveFrc = 0.5
	}
	return c
}

// Result reports, for each tested removal fraction, the share of samples
// that survived, plus the headline number: the maximum fraction of links
// removable while the survival share stays above the configured threshold.
type Result struct {
	Fractions []float64 // tested removal fractions
	Survival  []float64 // surviving share per fraction
	MaxSafe   float64   // largest fraction with Survival >= SurviveFrc
}

// Analyze runs the removal study on g under the given metric.
func Analyze(g *graph.Graph, metric Metric, cfg Config) Result {
	cfg = cfg.withDefaults()
	base := Baseline{}
	st := g.AllPairsStats()
	base.Diameter = st.Diameter
	base.AvgDist = st.AvgDist
	edges := g.Edges()
	var res Result
	for f := cfg.Step; f < 1.0-1e-9; f += cfg.Step {
		remove := int(f * float64(len(edges)))
		if remove >= len(edges) {
			break
		}
		surv := survivalShare(g, edges, remove, metric, base, cfg)
		res.Fractions = append(res.Fractions, f)
		res.Survival = append(res.Survival, surv)
		if surv >= cfg.SurviveFrc {
			res.MaxSafe = f
		} else if surv == 0 {
			break // heavier removal cannot recover
		}
	}
	return res
}

// survivalShare samples `cfg.Samples` random removals of `remove` edges and
// returns the surviving fraction. Samples run in parallel; each has its own
// deterministic RNG stream, shuffles the edge indices and builds the
// survivor graph from the edges after the first `remove`.
func survivalShare(g *graph.Graph, edges []graph.Edge, remove int, metric Metric, base Baseline, cfg Config) float64 {
	nw := runtime.GOMAXPROCS(0)
	if nw > cfg.Samples {
		nw = cfg.Samples
	}
	counts := make([]int, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx := make([]int, len(edges))
			kept := make([]graph.Edge, len(edges)-remove)
			for s := w; s < cfg.Samples; s += nw {
				rng := stats.NewRNG(cfg.Seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15 ^ uint64(remove)<<32)
				for i := range idx {
					idx[i] = i
				}
				rng.Shuffle(idx)
				for i, j := range idx[remove:] {
					kept[i] = edges[j]
				}
				if metric(graph.MustFromEdges(g.N(), kept), base) {
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / float64(cfg.Samples)
}
