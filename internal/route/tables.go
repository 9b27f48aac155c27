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

	"slimfly/internal/graph"
	"slimfly/internal/obs"
)

// Tables holds the all-pairs routing state for a router graph.
//
// Dist[d][u] is the hop distance from router u to router d (int8 suffices:
// every topology in the study has diameter well under 127, and Build
// refuses a graph that has more). NextHop(u, d) is the deterministic
// minimal next hop from u toward d (the lowest-id neighbour on a shortest
// path; -1 for u == d or unreachable), and NextPort(u, d) its index in u's
// sorted adjacency list: the port-indexed form the simulator hot path
// consumes, one array load per "which output port?" instead of a binary
// search over the adjacency list.
//
// The state is three contiguous n*n blocks, all source-major -- router u's
// answers for every destination are row u -- so the simulator, which
// resolves many destinations at one router back to back, stays within one
// cache-resident row. Distances are symmetric, so row d of dist is also
// the column Dist[d] reads.
type Tables struct {
	G    *graph.Graph
	Dist [][]int8 // row views into dist

	dist     []int8  // flat [u*n+d]: hop distance (-1 if unreachable)
	next     []int32 // flat [u*n+d]: next hop at u toward d (-1 if none)
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
// search from every router at once, whose visitor writes every reached
// pair's distance, next hop and port. It panics on a graph of diameter
// above 127 (Select reports the same as an error).
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
		dist:     make([]int8, n*n),
		next:     make([]int32, n*n),
		nextPort: make([]int32, n*n),
		n:        n,
	}
	// At level l the sweep hands router u the routers d at distance l and,
	// for every neighbour v, those at distance l-1 from v. Neighbour i, in
	// adjacency order, claims every d it is one hop short of that no
	// earlier neighbour claimed: d's first closer neighbour in the list,
	// the lowest id when adjacency is sorted. u's worker fills row u of all
	// three tables and no other worker's lines.
	pairs := g.SweepLevels(func(level, u int, frontier, prev []uint64) bool {
		if level > math.MaxInt8 {
			return false
		}
		row := u * n
		dist, next, port := t.dist[row:row+n], t.next[row:row+n], t.nextPort[row:row+n]
		nbr := g.Neighbors(u)
		for j, rest := range frontier {
			for i := 0; rest != 0; i++ {
				claim := rest & prev[int(nbr[i])*len(frontier)+j]
				rest &^= claim
				for ; claim != 0; claim &= claim - 1 {
					d := j<<6 | bits.TrailingZeros64(claim)
					dist[d] = int8(level)
					next[d] = nbr[i]
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
	// The sweep left the diagonal and every unreached pair at zero. The
	// diagonal, entries i = u*(n+1), keeps distance 0 and has no next hop;
	// unreached pairs exist only if the pair counts fall short of n(n-1).
	var reached int64
	for _, c := range pairs {
		reached += c
	}
	for i := 0; i < n*n; i += n + 1 {
		t.next[i], t.nextPort[i] = -1, -1
	}
	if reached < int64(n)*int64(n-1) {
		for i, v := range t.dist {
			if v == 0 && i%(n+1) != 0 {
				t.dist[i], t.next[i], t.nextPort[i] = -1, -1, -1
			}
		}
	}
	for d := 0; d < n; d++ {
		t.Dist[d] = t.dist[d*n : (d+1)*n : (d+1)*n]
	}
	return t, nil
}

// Distance returns the hop distance from u to d (-1 if unreachable).
func (t *Tables) Distance(u, d int) int { return int(t.Dist[d][u]) }

// NextHop returns the deterministic minimal next hop from u toward d, or -1
// if u == d or d is unreachable.
func (t *Tables) NextHop(u, d int) int32 { return t.next[u*t.n+d] }

// NextPort returns u's output-port index toward d: the position of
// NextHop(u, d) in u's sorted adjacency list (-1 if u == d or d is
// unreachable). Because minimal tables route adjacent pairs directly, this
// doubles as an O(1) neighbour->port translation: for any neighbour v of u,
// NextPort(u, v) is the port connecting u to v.
func (t *Tables) NextPort(u, d int) int32 { return t.nextPort[u*t.n+d] }

// NextPortFlat exposes the whole flat [u*n+d] (source-major) port table
// plus n for hot loops that index it directly (the simulator engine).
func (t *Tables) NextPortFlat() ([]int32, int) { return t.nextPort, t.n }

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
