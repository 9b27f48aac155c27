// Package graph provides the undirected-graph container and the graph
// algorithms used throughout the Slim Fly reproduction: BFS, all-pairs
// shortest-path statistics (diameter, average distance, histograms),
// connected components, and edge bookkeeping for failure injection.
//
// Vertices are dense integers [0, N). Edges are undirected and simple (no
// self-loops, no multi-edges); each full-duplex network link is one edge.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected simple graph over vertices 0..N-1.
type Graph struct {
	n   int
	adj [][]int32
}

// New creates an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate edges
// are rejected with an error so topology constructors catch wiring bugs
// immediately.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	return nil
}

// MustAddEdge is AddEdge but panics on error. Topology constructors use it:
// a wiring error there is a programming bug, not a runtime condition.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// AddEdgeIfAbsent inserts {u,v} unless it already exists or is a self-loop;
// it reports whether an edge was added.
func (g *Graph) AddEdgeIfAbsent(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n || g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Scan the shorter adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if int(w) == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
//
//sf:hotpath
func (g *Graph) Neighbors(u int) []int32 { return g.adj[u] }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	m := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > m {
			m = d
		}
	}
	return m
}

// IsRegular reports whether all vertices have the same degree, returning
// that degree when true.
func (g *Graph) IsRegular() (int, bool) {
	if g.n == 0 {
		return 0, true
	}
	d := len(g.adj[0])
	for u := 1; u < g.n; u++ {
		if len(g.adj[u]) != d {
			return 0, false
		}
	}
	return d, true
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	s := 0
	for u := 0; u < g.n; u++ {
		s += len(g.adj[u])
	}
	return s / 2
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int32 }

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.EdgeCount())
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if int32(u) < v {
				es = append(es, Edge{int32(u), v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		c.adj[u] = append([]int32(nil), g.adj[u]...)
	}
	return c
}

// SortAdjacency sorts every adjacency list ascending; useful for
// deterministic iteration after construction.
func (g *Graph) SortAdjacency() {
	for u := 0; u < g.n; u++ {
		a := g.adj[u]
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	}
}

// RemoveEdge deletes {u,v}; it reports whether the edge existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = removeFrom(g.adj[u], int32(v))
	g.adj[v] = removeFrom(g.adj[v], int32(u))
	return true
}

func removeFrom(a []int32, x int32) []int32 {
	for i, w := range a {
		if w == x {
			a[i] = a[len(a)-1]
			return a[:len(a)-1]
		}
	}
	return a
}

// Subgraph returns a copy of g with the listed edges removed. Edges that do
// not exist are ignored. Used heavily by the resiliency analysis.
func (g *Graph) Subgraph(removed []Edge) *Graph {
	c := g.Clone()
	for _, e := range removed {
		c.RemoveEdge(int(e.U), int(e.V))
	}
	return c
}
