// Package route builds the routing state used by the simulator and the
// worst-case traffic generator: all-pairs distances and deterministic
// minimal next-hop tables (Section IV-A), both filled by one breadth-first
// sweep from every router at once (graph.SweepLevels), Valiant path helpers
// (Section IV-B), and a DFSSSP-style virtual-channel layering used to
// reproduce the deadlock-freedom experiment of Section IV-D.
package route

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"slimfly/internal/graph"
	"slimfly/internal/obs"
)

// Tables holds per-destination routing state for a router graph.
//
// Dist[d][u] is the hop distance from router u to router d (int8 suffices:
// every topology in the study has diameter well under 127, and Build
// refuses a graph that has more).
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
	maxDist  int // memoized diameter: the levels Build swept
}

var (
	// errDiameter is what Select returns and Build panics with.
	errDiameter = errors.New("route: graph diameter exceeds 127, the int8 distance tables' limit")
	// obsLevels is the number of levels the last Build swept: its diameter.
	obsLevels = obs.NewGauge("route.tables_levels")
)

// Build computes the tables in one graph.SweepLevels, a breadth-first
// search from every router at once: the sweep's visitor writes distances
// and ports, fillNext derives Next from the ports. It panics on a graph of
// diameter above 127 (Select reports the same as an error).
func Build(g *graph.Graph) *Tables {
	t, err := build(g)
	if err != nil {
		panic(err)
	}
	return t
}

func build(g *graph.Graph) (*Tables, error) {
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
	// At level l the sweep hands router u the routers d at distance l and,
	// for every neighbour v, those at distance l-1 from v. Neighbour i, in
	// adjacency order, claims every d it is one hop short of that no
	// earlier neighbour claimed: d's first closer neighbour in the list,
	// the lowest id when adjacency is sorted. Distances are symmetric, so
	// u's worker fills row u of both tables and no other worker's lines.
	pairs := g.SweepLevels(func(level, u int, frontier, prev []uint64) bool {
		if level > math.MaxInt8 {
			return false
		}
		dist, port := t.dist[u*n:(u+1)*n], t.nextPort[u*n:(u+1)*n]
		nbr := g.Neighbors(u)
		for j, rest := range frontier {
			for i := 0; rest != 0; i++ {
				claim := rest & prev[int(nbr[i])*len(frontier)+j]
				rest &^= claim
				for ; claim != 0; claim &= claim - 1 {
					d := j<<6 | bits.TrailingZeros64(claim)
					dist[d] = int8(level)
					port[d] = int32(i)
				}
			}
		}
		return true
	})
	t.maxDist = len(pairs) - 1
	obsLevels.Set(int64(t.maxDist))
	if t.maxDist > math.MaxInt8 {
		return nil, errDiameter
	}
	band := (n + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += band {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.fillNext(lo, min(lo+band, n))
		}()
	}
	wg.Wait()
	for d := 0; d < n; d++ {
		t.Dist[d] = t.dist[d*n : (d+1)*n : (d+1)*n]
		t.Next[d] = t.next[d*n : (d+1)*n : (d+1)*n]
	}
	return t, nil
}

// fillNext finishes the tables for destinations lo <= d < hi. Next,
// destination-major where the port table is source-major, gets the
// neighbour behind each port: a transpose, walked in square tiles that keep
// both sides in cache. A distance still zero marks the diagonal and the
// pairs no level reached, which get -1 throughout (the diagonal keeps 0).
func (t *Tables) fillNext(lo, hi int) {
	const tile = 64
	n := t.n
	for d0 := lo; d0 < hi; d0 += tile {
		for u0 := 0; u0 < n; u0 += tile {
			for u := u0; u < min(u0+tile, n); u++ {
				nbr := t.G.Neighbors(u)
				for d := d0; d < min(d0+tile, hi); d++ {
					i := u*n + d
					if t.dist[i] != 0 {
						t.next[d*n+u] = nbr[t.nextPort[i]]
						continue
					}
					if u != d {
						t.dist[i] = -1
					}
					t.nextPort[i], t.next[d*n+u] = -1, -1
				}
			}
		}
	}
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

// MaxDistance returns the measured diameter according to the tables,
// memoized by Build: sim.New consults it on every construction.
func (t *Tables) MaxDistance() int { return t.maxDist }

// Graph returns the router graph the tables were built for.
func (t *Tables) Graph() *graph.Graph { return t.G }

// TableBytes reports the materialized routing state: the three flat n*n
// backings (1-byte Dist, 4-byte Next, 4-byte NextPort).
func (t *Tables) TableBytes() int64 { return EstimateTableBytes(t.n) }

// Backend names the implementation for telemetry and CLI output.
func (t *Tables) Backend() string { return "tables" }
