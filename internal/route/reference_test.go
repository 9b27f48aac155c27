package route_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/graphtest"
	"slimfly/internal/route"
	"slimfly/internal/topo/random"
	"slimfly/internal/topo/slimfly"
)

// refTables is what referenceBuild computes: the four things route.Build
// produces, as flat arrays in Build's layouts.
type refTables struct {
	maxDist  int
	dist     []int8  // [d*n+u]
	next     []int32 // [d*n+u]
	nextPort []int32 // [u*n+d]
}

// referenceBuild is the tables' definition, computed the slow way: one BFS
// per destination d, then for every router u the first neighbour in u's
// adjacency list that is one hop closer to d. With sorted adjacency that is
// the lowest-id neighbour on a shortest path, the tie-break every backend
// must reproduce.
func referenceBuild(g *graph.Graph) refTables {
	n := g.N()
	r := refTables{dist: make([]int8, n*n), next: make([]int32, n*n), nextPort: make([]int32, n*n)}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		g.BFSInto(d, dist, queue)
		for u := 0; u < n; u++ {
			r.dist[d*n+u] = int8(dist[u])
			r.next[d*n+u] = -1
			r.nextPort[u*n+d] = -1
			if int(dist[u]) > r.maxDist {
				r.maxDist = int(dist[u])
			}
			if dist[u] <= 0 {
				continue // u == d or unreachable
			}
			for i, v := range g.Neighbors(u) {
				if dist[v] == dist[u]-1 {
					r.next[d*n+u] = v
					r.nextPort[u*n+d] = int32(i)
					break
				}
			}
		}
	}
	return r
}

// diffTables names the first field and router pair on which tb departs
// from the reference, or returns "".
func diffTables(tb *route.Tables, ref refTables) string {
	n := tb.Graph().N()
	if tb.MaxDistance() != ref.maxDist {
		return fmt.Sprintf("MaxDistance %d, reference %d", tb.MaxDistance(), ref.maxDist)
	}
	ports, pn := tb.NextPortFlat()
	if pn != n || len(ports) != n*n || len(tb.Dist) != n {
		return fmt.Sprintf("shape: %d Dist rows, %d ports of stride %d for %d routers", len(tb.Dist), len(ports), pn, n)
	}
	for d := 0; d < n; d++ {
		if len(tb.Dist[d]) != n {
			return fmt.Sprintf("row %d: %d distances for %d routers", d, len(tb.Dist[d]), n)
		}
		for u := 0; u < n; u++ {
			if got, want := tb.Dist[d][u], ref.dist[d*n+u]; got != want {
				return fmt.Sprintf("Dist[%d][%d] = %d, reference %d", d, u, got, want)
			}
			if got, want := tb.NextHop(u, d), ref.next[d*n+u]; got != want {
				return fmt.Sprintf("NextHop(%d, %d) = %d, reference %d", u, d, got, want)
			}
			if got, want := ports[u*n+d], ref.nextPort[u*n+d]; got != want {
				return fmt.Sprintf("NextPort(%d, %d) = %d, reference %d", u, d, got, want)
			}
		}
	}
	return ""
}

// TestBuildMatchesReferenceBFS compares route.Build with referenceBuild,
// field by field, on the pin list and on 200 seeded random graphs, with 1,
// 2 and 5 processors: however Build divides the routers among its workers
// (at 5 the divisions fall inside 64-router words), the tables are the same.
func TestBuildMatchesReferenceBFS(t *testing.T) {
	cases := append(graphtest.Pinned(t), graphtest.Randoms(200)...)
	refs := make([]refTables, len(cases))
	for i, c := range cases {
		refs[i] = referenceBuild(c.G)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 5} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			if diff := diffTables(route.Build(c.G), refs[i]); diff != "" {
				t.Errorf("GOMAXPROCS=%d %s (%d routers): %s", procs, c.Name, c.G.N(), diff)
			}
		}
	}
}

// referenceLayering is ComputeVCLayering as first written, the definition
// of the greedy layering: destinations in ascending order, each whole
// in-tree to the first layer that stays acyclic (Kahn's algorithm over the
// union, rerun for every destination and layer), else to a new layer.
func referenceLayering(t *route.Tables) route.VCLayering {
	g := t.G
	n := g.N()
	ci := newChannelIndex(g)
	var layers []*layer
	byDest := make([]int, n)
	for d := 0; d < n; d++ {
		deps := destDeps(t, ci, d)
		placed := false
		for li, l := range layers {
			if l.acyclicWith(deps) {
				l.add(deps)
				byDest[d] = li
				placed = true
				break
			}
		}
		if !placed {
			l := newLayer(ci.n)
			l.add(deps)
			layers = append(layers, l)
			byDest[d] = len(layers) - 1
		}
	}
	return route.VCLayering{Layers: len(layers), ByDest: byDest}
}

// channelIndex numbers the directed channels of a graph: the undirected
// edge {u,v} (u < v) with index i yields channel 2i for u->v and 2i+1 for
// v->u.
type channelIndex struct {
	n  int
	id map[int64]int32
}

func newChannelIndex(g *graph.Graph) *channelIndex {
	ci := &channelIndex{id: make(map[int64]int32, 2*g.EdgeCount())}
	for _, e := range g.Edges() {
		u, v := int64(e.U), int64(e.V)
		ci.id[u<<32|v] = int32(ci.n)
		ci.id[v<<32|u] = int32(ci.n + 1)
		ci.n += 2
	}
	return ci
}

func (ci *channelIndex) channel(u, v int32) int32 {
	return ci.id[int64(u)<<32|int64(v)]
}

// layer is one virtual layer's channel dependency graph.
type layer struct {
	n   int
	adj [][]int32
}

func newLayer(n int) *layer { return &layer{n: n, adj: make([][]int32, n)} }

// acyclicWith reports whether the layer stays acyclic after adding deps
// (Kahn's algorithm over the union).
func (l *layer) acyclicWith(deps [][2]int32) bool {
	indeg := make([]int32, l.n)
	extra := make(map[int32][]int32, len(deps))
	for _, d := range deps {
		extra[d[0]] = append(extra[d[0]], d[1])
		indeg[d[1]]++
	}
	for u := 0; u < l.n; u++ {
		for _, v := range l.adj[u] {
			indeg[v]++
		}
	}
	queue := make([]int32, 0, l.n)
	for u := 0; u < l.n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, int32(u))
		}
	}
	seen := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		seen++
		for _, v := range l.adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
		for _, v := range extra[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return seen == l.n
}

func (l *layer) add(deps [][2]int32) {
	for _, d := range deps {
		l.adj[d[0]] = append(l.adj[d[0]], d[1])
	}
}

// destDeps lists the deduplicated channel dependency pairs induced by all
// minimal routes toward destination d: for each router u, the hop
// u -> next(u) depends on the following hop next(u) -> next(next(u)).
func destDeps(t *route.Tables, ci *channelIndex, d int) [][2]int32 {
	n := t.G.N()
	seen := make(map[int64]bool)
	var deps [][2]int32
	for u := 0; u < n; u++ {
		if u == d {
			continue
		}
		cur := int32(u)
		next := t.NextHop(int(cur), d)
		for next >= 0 && int(next) != d {
			after := t.NextHop(int(next), d)
			if after < 0 {
				break
			}
			c1 := ci.channel(cur, next)
			c2 := ci.channel(next, after)
			key := int64(c1)<<32 | int64(c2)
			if !seen[key] {
				seen[key] = true
				deps = append(deps, [2]int32{c1, c2})
			}
			cur, next = next, after
		}
	}
	return deps
}

// vcCases are the networks of sfexp's Section IV-D table (-exp vc at its
// default seed 1): Slim Fly q = 5 ... 13 and the DLN comparison points of
// 338 and 1682 endpoints.
func vcCases(tb testing.TB) []graphtest.Case {
	tb.Helper()
	var cs []graphtest.Case
	for _, q := range []int{5, 7, 9, 11, 13} {
		cs = append(cs, graphtest.Case{Name: fmt.Sprintf("SF q=%d", q), G: slimfly.MustNew(q).Graph()})
	}
	for _, n := range []int{338, 1682} {
		cs = append(cs, graphtest.Case{Name: fmt.Sprintf("DLN N=%d", n), G: random.MustNew(n/6+1, 8, 6, 1).Graph()})
	}
	return cs
}

// TestVCLayeringMatchesReference holds ComputeVCLayering to
// referenceLayering, layer count and every destination's layer, on the
// Section IV-D networks, rings (whose minimal routes close dependency
// cycles), every pinned graph of at most 300 routers and the random graphs
// of at most 150: the reference costs up to a second on a 300-router random
// graph of 20-odd layers, and the 103 smaller ones already run from
// isolated vertices to dense graphs of 29 layers.
func TestVCLayeringMatchesReference(t *testing.T) {
	cases := vcCases(t)
	for _, n := range []int{3, 4, 8, 9, 31} {
		cases = append(cases, graphtest.Case{Name: fmt.Sprintf("ring-%d", n), G: graphtest.Ring(n)})
	}
	for _, c := range graphtest.Pinned(t) {
		if c.G.N() <= 300 {
			cases = append(cases, c)
		}
	}
	for _, c := range graphtest.Randoms(200) {
		if c.G.N() <= 150 {
			cases = append(cases, c)
		}
	}
	for _, c := range cases {
		tb := route.Build(c.G)
		got, want := route.ComputeVCLayering(tb), referenceLayering(tb)
		if got.Layers != want.Layers || !slices.Equal(got.ByDest, want.ByDest) {
			t.Errorf("%s (%d routers): %d layers, by destination %v; reference %d layers, %v", c.Name, c.G.N(), got.Layers, got.ByDest, want.Layers, want.ByDest)
		}
	}
}
