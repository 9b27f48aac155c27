package route_test

import (
	"fmt"
	"runtime"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/graphtest"
	"slimfly/internal/route"
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
	if pn != n || len(ports) != n*n || len(tb.Dist) != n || len(tb.Next) != n {
		return fmt.Sprintf("shape: %d Dist rows, %d Next rows, %d ports of stride %d for %d routers", len(tb.Dist), len(tb.Next), len(ports), pn, n)
	}
	for d := 0; d < n; d++ {
		if len(tb.Dist[d]) != n || len(tb.Next[d]) != n {
			return fmt.Sprintf("row %d: %d distances and %d next hops for %d routers", d, len(tb.Dist[d]), len(tb.Next[d]), n)
		}
		for u := 0; u < n; u++ {
			if got, want := tb.Dist[d][u], ref.dist[d*n+u]; got != want {
				return fmt.Sprintf("Dist[%d][%d] = %d, reference %d", d, u, got, want)
			}
			if got, want := tb.Next[d][u], ref.next[d*n+u]; got != want {
				return fmt.Sprintf("Next[%d][%d] = %d, reference %d", d, u, got, want)
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
