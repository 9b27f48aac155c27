package graph

import (
	"testing"
	"testing/quick"

	"slimfly/internal/stats"
)

func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 4); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := g.AddEdge(-1, 2); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
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
	if d, reg := g.IsRegular(); !reg || d != 2 {
		t.Errorf("ring IsRegular = (%d,%v), want (2,true)", d, reg)
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
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Errorf("disconnected vertices reachable: %v", dist)
	}
	if g.IsConnected() {
		t.Error("IsConnected true on disconnected graph")
	}
	labels, count := g.ConnectedComponents()
	if count != 2 {
		t.Errorf("components = %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Errorf("bad labels %v", labels)
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

func TestRemoveEdgeAndSubgraph(t *testing.T) {
	g := ring(6)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge failed on existing edge")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge succeeded twice")
	}
	if g.EdgeCount() != 5 {
		t.Errorf("edges after removal = %d", g.EdgeCount())
	}
	if !g.IsConnected() {
		t.Error("path graph should stay connected")
	}
	// Subgraph must not mutate the original.
	h := ring(6)
	sub := h.Subgraph([]Edge{{0, 1}, {3, 4}})
	if h.EdgeCount() != 6 {
		t.Error("Subgraph mutated original")
	}
	if sub.EdgeCount() != 4 {
		t.Errorf("subgraph edges = %d, want 4", sub.EdgeCount())
	}
	if sub.IsConnected() {
		t.Error("ring minus two edges should disconnect")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := ring(5)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("clone shares storage with original")
	}
}

func TestShortestPathDAG(t *testing.T) {
	// 4-cycle: two shortest paths between opposite corners.
	g := ring(4)
	dist, preds := g.ShortestPathDAGFrom(0)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %d", dist[2])
	}
	if len(preds[2]) != 2 {
		t.Errorf("preds[2] = %v, want two predecessors", preds[2])
	}
}

// Property: on random graphs, AllPairsStats' histogram sums to Pairs and
// AvgDist equals the histogram-weighted mean.
func TestAllPairsHistogramConsistency(t *testing.T) {
	check := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 20 + rng.Intn(30)
		g := New(n)
		// Random connected-ish graph: ring + random chords.
		for i := 0; i < n; i++ {
			g.MustAddEdge(i, (i+1)%n)
		}
		for i := 0; i < n; i++ {
			g.AddEdgeIfAbsent(rng.Intn(n), rng.Intn(n))
		}
		st := g.AllPairsStats()
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
	g := ring(4096)
	rng := stats.NewRNG(1)
	for i := 0; i < 4096; i++ {
		g.AddEdgeIfAbsent(rng.Intn(4096), rng.Intn(4096))
	}
	dist := make([]int32, g.N())
	queue := make([]int32, 0, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSInto(i%g.N(), dist, queue)
	}
}

func BenchmarkAllPairs1024(b *testing.B) {
	g := ring(1024)
	rng := stats.NewRNG(2)
	for i := 0; i < 2048; i++ {
		g.AddEdgeIfAbsent(rng.Intn(1024), rng.Intn(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairsStats()
	}
}
