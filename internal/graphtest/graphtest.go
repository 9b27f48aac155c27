// Package graphtest holds the graphs that the all-pairs tests of
// internal/graph and internal/route share: the list whose path statistics
// and routing tables are pinned by hash, and a seeded random-graph
// generator for reference comparisons. It lives outside both packages
// because the list needs internal/roster, which imports them.
package graphtest

import (
	"fmt"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/roster"
	"slimfly/internal/stats"
	"slimfly/internal/topo/slimfly"
)

// Case is one named graph.
type Case struct {
	Name string
	G    *graph.Graph
}

// Pinned returns the pin list: the nine registry kinds near 100 and 1 000
// endpoints, Slim Fly q = 5, 7, 11, 19 at concentration 4, a two-component
// graph with isolated vertices, a 41-vertex path, a 200-ring (diameter
// 100), and graphs of 0, 1, 63, 64 and 65 vertices, one either side of a
// 64-vertex boundary.
func Pinned(tb testing.TB) []Case {
	tb.Helper()
	var cs []Case
	for _, n := range []int{100, 1000} {
		for _, kind := range roster.Kinds() {
			tp, err := roster.Near(kind, n, 1)
			if err != nil {
				tb.Fatal(err)
			}
			cs = append(cs, Case{fmt.Sprintf("%s@%d", kind, n), tp.Graph()})
		}
	}
	for _, q := range []int{5, 7, 11, 19} {
		sf, err := slimfly.NewWithConcentration(q, 4)
		if err != nil {
			tb.Fatal(err)
		}
		cs = append(cs, Case{fmt.Sprintf("SF-q%d-p4", q), sf.Graph()})
	}

	// Two components (a 9-ring with a chord, a 5-path) and vertices 14..19
	// with no edge at all.
	two := []graph.Edge{{U: 0, V: 4}}
	for i := 0; i < 9; i++ {
		two = append(two, graph.Edge{U: int32(i), V: int32((i + 1) % 9)})
	}
	for i := 9; i < 13; i++ {
		two = append(two, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	cs = append(cs, Case{"two-components", graph.MustFromEdges(20, two)}, Case{"path-41", Path(41)}, Case{"ring-200", Ring(200)})

	for _, n := range []int{0, 1, 63, 64, 65} {
		// A ring with a few seeded chords: the highest vertex, which sits
		// alone in the last word at n = 65, is an ordinary member.
		g := withRandomEdges(n, Ring(n).Edges(), n/4, stats.NewRNG(uint64(n)))
		cs = append(cs, Case{fmt.Sprintf("n%d", n), g})
	}
	return cs
}

// Ring returns the n-cycle (n < 3: no edges).
func Ring(n int) *graph.Graph {
	var es []graph.Edge
	for i := 0; i < n && n >= 3; i++ {
		es = append(es, graph.Edge{U: int32(i), V: int32((i + 1) % n)})
	}
	return graph.MustFromEdges(n, es)
}

// Path returns the n-vertex path 0 - 1 - ... - n-1 (diameter n-1).
func Path(n int) *graph.Graph {
	var es []graph.Edge
	for i := 0; i+1 < n; i++ {
		es = append(es, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return graph.MustFromEdges(n, es)
}

// withRandomEdges returns the graph on n vertices with the edges es plus
// `draws` random pairs (u, v), each drawn as rng.Intn(n), rng.Intn(n) and
// kept unless it is a self-loop or already an edge.
func withRandomEdges(n int, es []graph.Edge, draws int, rng *stats.RNG) *graph.Graph {
	seen := make(map[graph.Edge]bool, len(es)+draws)
	for _, e := range es {
		seen[e] = true
	}
	for i := 0; i < draws; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		e := graph.Edge{U: int32(min(u, v)), V: int32(max(u, v))}
		if u != v && !seen[e] {
			seen[e] = true
			es = append(es, e)
		}
	}
	return graph.MustFromEdges(n, es)
}

// Randoms returns Random(1) ... Random(n), named by seed.
func Randoms(n int) []Case {
	cs := make([]Case, n)
	for i := range cs {
		cs[i] = Case{fmt.Sprintf("random-%d", i+1), Random(uint64(i + 1))}
	}
	return cs
}

// Random returns a seeded graph of 2 to 300 vertices. The edge count is
// drawn between a handful and several n, so across seeds the graphs run
// from mostly isolated vertices through several components to dense and
// connected.
func Random(seed uint64) *graph.Graph {
	rng := stats.NewRNG(seed)
	n := 2 + rng.Intn(299)
	var edges int
	switch rng.Intn(3) {
	case 0:
		edges = rng.Intn(n)
	case 1:
		edges = n + rng.Intn(2*n)
	default:
		edges = n * (2 + rng.Intn(8))
	}
	return withRandomEdges(n, nil, edges, rng)
}
