package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"slimfly/internal/stats"
)

func ringEdges(n int) []Edge {
	es := make([]Edge, n)
	for i := range es {
		es[i] = Edge{int32(i), int32((i + 1) % n)}
	}
	return es
}

func ring(n int) *Graph { return MustFromEdges(n, ringEdges(n)) }

func complete(n int) *Graph {
	var es []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			es = append(es, Edge{int32(i), int32(j)})
		}
	}
	return MustFromEdges(n, es)
}

// withChords is ring(n) plus `draws` random pairs, each kept unless it is
// a self-loop or already an edge.
func withChords(n, draws int, rng *stats.RNG) *Graph {
	es := ringEdges(n)
	seen := map[Edge]bool{}
	for _, e := range es {
		seen[Edge{min(e.U, e.V), max(e.U, e.V)}] = true
	}
	for i := 0; i < draws; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if e := (Edge{min(u, v), max(u, v)}); u != v && !seen[e] {
			seen[e] = true
			es = append(es, e)
		}
	}
	return MustFromEdges(n, es)
}

// TestFromEdges pins the constructor's contract: out-of-range vertices,
// self-loops and edges listed twice (in either orientation) are refused
// with the messages topology constructors have always panicked with, and
// every accepted graph lists each vertex's neighbours strictly ascending
// and symmetrically, whatever order and orientation the edges came in.
func TestFromEdges(t *testing.T) {
	for _, c := range []struct {
		n     int
		edges []Edge
		err   string
	}{
		{4, []Edge{{0, 0}}, "graph: self-loop at 0"},
		{4, []Edge{{0, 4}}, "graph: edge (0,4) out of range [0,4)"},
		{4, []Edge{{-1, 2}}, "graph: edge (-1,2) out of range [0,4)"},
		{4, []Edge{{0, 1}, {1, 0}}, "graph: duplicate edge (0,1)"},
		{4, []Edge{{2, 3}, {0, 1}, {3, 2}}, "graph: duplicate edge (2,3)"},
		{-1, nil, "graph: negative vertex count"},
	} {
		if _, err := FromEdges(c.n, c.edges); err == nil || err.Error() != c.err {
			t.Errorf("FromEdges(%d, %v) = %v, want %q", c.n, c.edges, err, c.err)
		}
	}
	// A 6-vertex graph given in scrambled order and orientation.
	g, err := FromEdges(6, []Edge{{5, 0}, {3, 1}, {0, 2}, {4, 0}, {1, 0}, {5, 3}, {2, 4}})
	if err != nil {
		t.Fatalf("valid edges rejected: %v", err)
	}
	want := [][]int32{{1, 2, 4, 5}, {0, 3}, {0, 4}, {1, 5}, {0, 2}, {0, 3}}
	for u, w := range want {
		if nb := g.Neighbors(u); !slices.Equal(nb, w) {
			t.Errorf("Neighbors(%d) = %v, want %v", u, nb, w)
		}
	}
	if g.EdgeCount() != 7 || g.MaxDegree() != 4 {
		t.Errorf("EdgeCount %d, MaxDegree %d; want 7, 4", g.EdgeCount(), g.MaxDegree())
	}
	if e := g.Edges(); !slices.Equal(e, []Edge{{0, 1}, {0, 2}, {0, 4}, {0, 5}, {1, 3}, {2, 4}, {3, 5}}) {
		t.Errorf("Edges() = %v, want them lexicographic with U < V", e)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		n := 3 + rng.Intn(60)
		g := withChords(n, 3*n, rng)
		for u := 0; u < n; u++ {
			nb := g.Neighbors(u)
			for i, v := range nb {
				if i > 0 && nb[i-1] >= v {
					t.Fatalf("seed %d: Neighbors(%d) = %v is not strictly ascending", seed, u, nb)
				}
				if !slices.Contains(g.Neighbors(int(v)), int32(u)) || !g.HasEdge(int(v), u) {
					t.Fatalf("seed %d: %d lists %d but not the other way round", seed, u, v)
				}
			}
		}
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := ring(5)
	for i := 0; i < 5; i++ {
		if g.Degree(i) != 2 {
			t.Errorf("ring degree(%d) = %d, want 2", i, g.Degree(i))
		}
		if !g.HasEdge(i, (i+1)%5) {
			t.Errorf("ring missing edge %d-%d", i, (i+1)%5)
		}
	}
	if g.HasEdge(0, 2) {
		t.Error("ring has chord 0-2")
	}
}

func TestEdgeCountAndEdges(t *testing.T) {
	g := complete(6)
	if g.EdgeCount() != 15 {
		t.Errorf("K6 edge count = %d, want 15", g.EdgeCount())
	}
	es := g.Edges()
	if len(es) != 15 {
		t.Fatalf("K6 Edges() len = %d", len(es))
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %v not ordered", e)
		}
	}
}

func TestBFSRing(t *testing.T) {
	g := ring(10)
	dist := g.BFS(0)
	want := []int32{0, 1, 2, 3, 4, 5, 4, 3, 2, 1}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("ring10 dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {2, 3}})
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Errorf("disconnected vertices reachable: %v", dist)
	}
	if g.IsConnected() {
		t.Error("IsConnected true on disconnected graph")
	}
}

func TestAllPairsStatsRing(t *testing.T) {
	g := ring(8)
	st := g.AllPairsStats()
	if !st.Connected {
		t.Fatal("ring not connected")
	}
	if st.Diameter != 4 {
		t.Errorf("ring8 diameter = %d, want 4", st.Diameter)
	}
	// Ring of 8: distances from any vertex: 1,2,3,4,3,2,1 -> avg = 16/7.
	want := 16.0 / 7.0
	if diff := st.AvgDist - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ring8 avg dist = %v, want %v", st.AvgDist, want)
	}
	if st.Pairs != 8*7 {
		t.Errorf("pairs = %d, want 56", st.Pairs)
	}
	// Histogram: each distance d in 1..3 has 2 per source, distance 4 has 1.
	if st.Histogram[1] != 16 || st.Histogram[2] != 16 || st.Histogram[3] != 16 || st.Histogram[4] != 8 {
		t.Errorf("histogram %v", st.Histogram)
	}
}

func TestAllPairsStatsComplete(t *testing.T) {
	st := complete(9).AllPairsStats()
	if st.Diameter != 1 || st.AvgDist != 1 {
		t.Errorf("K9 stats = %+v", st)
	}
}

func TestEccentricity(t *testing.T) {
	g := ring(9)
	ecc, conn := g.Eccentricity(3)
	if !conn || ecc != 4 {
		t.Errorf("ring9 ecc = (%d,%v), want (4,true)", ecc, conn)
	}
}

// TestSurvivorGraph builds graphs the way the resiliency analysis builds
// each sample's survivors: from a tail of the full graph's edge list.
func TestSurvivorGraph(t *testing.T) {
	es := ring(6).Edges() // {0,1} first
	g := MustFromEdges(6, es[1:])
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("dropped edge still present")
	}
	if g.EdgeCount() != 5 {
		t.Errorf("edges after removal = %d", g.EdgeCount())
	}
	if !g.IsConnected() {
		t.Error("path graph should stay connected")
	}
	sub := MustFromEdges(6, slices.DeleteFunc(slices.Clone(es), func(e Edge) bool { return e == Edge{0, 1} || e == Edge{3, 4} }))
	if len(es) != 6 {
		t.Error("building a survivor graph changed the edge list")
	}
	if sub.EdgeCount() != 4 {
		t.Errorf("subgraph edges = %d, want 4", sub.EdgeCount())
	}
	if sub.IsConnected() {
		t.Error("ring minus two edges should disconnect")
	}
}

// Property: on random graphs, AllPairsStats' histogram sums to Pairs and
// AvgDist equals the histogram-weighted mean.
func TestAllPairsHistogramConsistency(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 20 + rng.Intn(30)
		// Random connected-ish graph: ring + random chords.
		st := withChords(n, n, rng).AllPairsStats()
		var total, weighted int64
		for d, c := range st.Histogram {
			total += c
			weighted += int64(d) * c
		}
		if total != st.Pairs {
			return false
		}
		want := float64(weighted) / float64(total)
		diff := st.AvgDist - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFS4096(b *testing.B) {
	g := withChords(4096, 4096, stats.NewRNG(1))
	dist := make([]int32, g.N())
	queue := make([]int32, 0, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSInto(i%g.N(), dist, queue)
	}
}

func BenchmarkAllPairs1024(b *testing.B) {
	g := withChords(1024, 2048, stats.NewRNG(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairsStats()
	}
}
