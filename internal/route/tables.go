// Package route builds the routing state used by the simulator and the
// worst-case traffic generator: all-pairs distances, deterministic minimal
// next-hop tables (Section IV-A), Valiant path helpers (Section IV-B), and
// a DFSSSP-style virtual-channel layering used to reproduce the
// deadlock-freedom experiment of Section IV-D.
package route

import (
	"runtime"
	"sync"

	"slimfly/internal/graph"
)

// Tables holds per-destination routing state for a router graph.
//
// Dist[d][u] is the hop distance from router u to router d (int8 suffices:
// every topology in the study has diameter well under 127).
// Next[d][u] is the deterministic minimal next hop from u toward d (the
// lowest-id neighbour on a shortest path; -1 for u == d or unreachable).
//
// All rows are views into single contiguous backing arrays, so the whole
// table is two cache-friendly n*n blocks rather than n separate
// allocations. Alongside the router-id answer, Build precomputes the
// port-indexed form consumed by the simulator hot path: NextPort(u, d) is
// the index of Next[d][u] within u's sorted adjacency list, which turns
// every per-flit "which output port?" question into one array load instead
// of a binary search over the adjacency list.
type Tables struct {
	G    *graph.Graph
	Dist [][]int8  // row views into dist
	Next [][]int32 // row views into next

	dist []int8  // flat [d*n+u] backing for Dist
	next []int32 // flat [d*n+u] backing for Next
	// nextPort is laid out by SOURCE router -- [u*n+d] -- unlike Dist/Next:
	// the simulator resolves many destinations at one router back to back,
	// so router u's decisions live in one contiguous, cache-resident row.
	nextPort []int32 // flat [u*n+d]: output-port index at u toward d (-1 if none)
	n        int
	maxDist  int // memoized diameter, computed once in Build
}

// Build computes the tables with one BFS per destination, parallelised
// across destinations.
func Build(g *graph.Graph) *Tables {
	n := g.N()
	t := &Tables{
		G:        g,
		Dist:     make([][]int8, n),
		Next:     make([][]int32, n),
		dist:     make([]int8, n*n),
		next:     make([]int32, n*n),
		nextPort: make([]int32, n*n),
		n:        n,
	}
	nw := runtime.GOMAXPROCS(0)
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	maxByWorker := make([]int, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dist := make([]int32, n)
			queue := make([]int32, 0, n)
			maxSeen := 0
			for d := w; d < n; d += nw {
				g.BFSInto(d, dist, queue)
				row := d * n
				d8 := t.dist[row : row+n : row+n]
				next := t.next[row : row+n : row+n]
				for u := 0; u < n; u++ {
					if dist[u] == graph.Unreachable {
						d8[u] = -1
						next[u] = -1
						t.nextPort[u*n+d] = -1
						continue
					}
					d8[u] = int8(dist[u])
					if int(d8[u]) > maxSeen {
						maxSeen = int(d8[u])
					}
					next[u] = -1
					t.nextPort[u*n+d] = -1
					if u == d {
						continue
					}
					// Lowest-id neighbour one step closer to d; its index
					// in the sorted adjacency list is u's output port
					// toward d (stored source-major: see nextPort).
					for i, v := range g.Neighbors(u) {
						if dist[v] == dist[u]-1 {
							next[u] = v
							t.nextPort[u*n+d] = int32(i)
							break // adjacency lists are sorted
						}
					}
				}
				t.Dist[d] = d8
				t.Next[d] = next
			}
			maxByWorker[w] = maxSeen
		}(w)
	}
	wg.Wait()
	for _, m := range maxByWorker {
		if m > t.maxDist {
			t.maxDist = m
		}
	}
	return t
}

// Distance returns the hop distance from u to d (-1 if unreachable).
func (t *Tables) Distance(u, d int) int { return int(t.Dist[d][u]) }

// NextHop returns the deterministic minimal next hop from u toward d, or -1
// if u == d or d is unreachable.
func (t *Tables) NextHop(u, d int) int32 { return t.Next[d][u] }

// NextPort returns u's output-port index toward d: the position of
// NextHop(u, d) in u's sorted adjacency list (-1 if u == d or d is
// unreachable). Because minimal tables route adjacent pairs directly, this
// doubles as an O(1) neighbour->port translation: for any neighbour v of u,
// NextPort(u, v) is the port connecting u to v.
func (t *Tables) NextPort(u, d int) int32 { return t.nextPort[u*t.n+d] }

// NextPortFlat exposes the whole flat [u*n+d] (source-major) port table
// plus n for hot loops that index it directly (the simulator engine).
func (t *Tables) NextPortFlat() ([]int32, int) { return t.nextPort, t.n }

// Path returns the deterministic minimal path from u to d inclusive of both
// endpoints (nil if unreachable).
func (t *Tables) Path(u, d int) []int32 {
	if t.Dist[d][u] < 0 {
		return nil
	}
	path := make([]int32, 0, t.Dist[d][u]+1)
	cur := int32(u)
	path = append(path, cur)
	for cur != int32(d) {
		cur = t.Next[d][cur]
		path = append(path, cur)
	}
	return path
}

// ValiantLen returns the length in hops of the Valiant path s -> r -> d.
// Distances are symmetric (the graph is undirected), so both terms read
// rows s and d rather than row r: UGAL probes many candidate r for one
// (s, d) pair, and this keeps both touched rows cache-hot across probes.
func (t *Tables) ValiantLen(s, r, d int) int {
	return int(t.Dist[s][r]) + int(t.Dist[d][r])
}

// MaxDistance returns the measured diameter according to the tables. The
// value is computed once during Build: callers like sim.New consult it on
// every simulator construction, and the old per-call O(n^2) rescan dominated
// setup cost for large networks.
func (t *Tables) MaxDistance() int { return t.maxDist }

// Graph returns the router graph the tables were built for.
func (t *Tables) Graph() *graph.Graph { return t.G }

// TableBytes reports the materialized routing state: the three flat n*n
// backings (1-byte Dist, 4-byte Next, 4-byte NextPort).
func (t *Tables) TableBytes() int64 { return EstimateTableBytes(t.n) }

// Backend names the implementation for telemetry and CLI output.
func (t *Tables) Backend() string { return "tables" }
