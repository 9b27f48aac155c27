// Package graph provides the undirected-graph container and the graph
// algorithms used throughout the Slim Fly reproduction: BFS, all-pairs
// shortest-path statistics (diameter, average distance, histograms) and
// connectivity.
//
// Vertices are dense integers [0, N). Edges are undirected and simple (no
// self-loops, no multi-edges); each full-duplex network link is one edge.
//
// A Graph is built once, by FromEdges, and never changes. FromEdges owns
// the one invariant everything downstream reads: every adjacency list is
// strictly ascending, so a router's port toward a neighbour is that
// neighbour's rank in the list (route.Router's port contract) and
// "lowest-id neighbour first" tie-breaks need no sort of their own.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Graph is an immutable undirected simple graph over vertices 0..N-1, in
// compressed sparse rows: u's neighbours, ascending, are
// nbr[off[u]:off[u+1]].
type Graph struct {
	n   int
	off []int32
	nbr []int32
}

// FromEdges builds the graph on n vertices with the given undirected edges,
// in any order and either orientation. It lays the adjacency into one slab
// and sorts each vertex's window once. An edge out of [0, n), a self-loop or
// an edge listed twice (in either orientation) is an error, so topology
// constructors catch wiring bugs immediately.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative vertex count")
	}
	off := make([]int32, n+1)
	for _, e := range edges {
		u, v := int(e.U), int(e.V)
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		off[u+1]++
		off[v+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	g := &Graph{n: n, off: off, nbr: make([]int32, off[n])}
	next := slices.Clone(off[:n])
	for _, e := range edges {
		g.nbr[next[e.U]] = e.V
		next[e.U]++
		g.nbr[next[e.V]] = e.U
		next[e.V]++
	}
	for u := 0; u < n; u++ {
		w := g.Neighbors(u)
		slices.Sort(w)
		for i := 1; i < len(w); i++ {
			if w[i] == w[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, w[i])
			}
		}
	}
	return g, nil
}

// MustFromEdges is FromEdges but panics on error. Topology constructors use
// it: a wiring error there is a programming bug, not a runtime condition.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// HasEdge reports whether {u, v} is an edge: a binary search of the
// shorter adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	return ok
}

// Neighbors returns the adjacency list of u, strictly ascending. The
// returned slice is owned by the graph and must not be modified.
//
//sf:hotpath
func (g *Graph) Neighbors(u int) []int32 { return g.nbr[g.off[u]:g.off[u+1]:g.off[u+1]] }

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	m := 0
	for u := 0; u < g.n; u++ {
		m = max(m, g.Degree(u))
	}
	return m
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return len(g.nbr) / 2 }

// Edge is an undirected edge. Edges returns them with U < V; FromEdges
// takes either orientation.
type Edge struct{ U, V int32 }

// Edges returns all edges with U < V, sorted lexicographically: a scan of
// the ascending adjacency lists in vertex order yields them that way.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.EdgeCount())
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				es = append(es, Edge{int32(u), v})
			}
		}
	}
	return es
}
