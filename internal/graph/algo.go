package graph

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Unreachable marks a vertex with no path from the BFS source.
const Unreachable int32 = -1

// BFS computes hop distances from src into dist, which must have length N.
// Unreachable vertices get Unreachable. The scratch queue is allocated
// internally; use BFSInto for allocation-free repeated traversals.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	queue := make([]int32, 0, g.n)
	g.BFSInto(src, dist, queue)
	return dist
}

// BFSInto is BFS with caller-provided buffers: dist (len N) and queue
// (capacity N, length 0 on entry is not required — it is reset).
func (g *Graph) BFSInto(src int, dist []int32, queue []int32) {
	for i := range dist {
		dist[i] = Unreachable
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
}

// Eccentricity returns the maximum finite distance from src, and whether all
// vertices are reachable.
func (g *Graph) Eccentricity(src int) (ecc int, connected bool) {
	dist := g.BFS(src)
	connected = true
	for _, d := range dist {
		if d == Unreachable {
			connected = false
			continue
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, connected
}

// SweepLevels runs a breadth-first search from every vertex at once, one
// level per step, over bitsets of W = ceil(n/64) words per vertex (Then et
// al., "The More the Merrier", VLDB 2014). Bit d of u's row in the slab of
// a level says dist(u, d) is that level; the next level of u is the OR of
// its neighbours' current rows minus everything u has reached before. That
// is D*n*k*W word operations for diameter D and degree k where one BFS per
// vertex probes n*n*k edges, and the scratch is three n*W slabs (previous
// level, new level, reached) however many levels there are.
//
// For every level l >= 1 and every vertex u with vertices at distance
// exactly l, visit(l, u, frontier, prev) is called with u's new row (bit
// d set: dist(u, d) == l) and the whole slab of the level before (row v is
// prev[v*W:(v+1)*W]; bit d set: dist(v, d) == l-1), so frontier & row v
// of a neighbour v are the vertices u reaches through v. The calls of one
// level run concurrently -- each worker owns a contiguous range of u, with
// a barrier between levels -- and must only read the two slices, which are
// reused by the next level. A visit that returns false ends the sweep
// after its level. visit may be nil.
//
// The result counts the ordered pairs at each distance: pairs[l] for l >=
// 1, pairs[0] == 0, and len(pairs)-1 is the last level that found any (the
// diameter, over reachable pairs, of a sweep that was not ended early).
func (g *Graph) SweepLevels(visit func(level, u int, frontier, prev []uint64) bool) (pairs []int64) {
	n := g.n
	W := (n + 63) / 64
	slab := make([]uint64, 3*n*W)
	prev, cur, reach := slab[:n*W], slab[n*W:2*n*W], slab[2*n*W:]
	for u := 0; u < n; u++ {
		prev[u*W+u>>6] = 1 << (u & 63)
		reach[u*W+u>>6] = 1 << (u & 63)
	}
	chunk := (n + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	var found atomic.Int64
	var stop atomic.Bool
	sweep := func(level, lo, hi int, prev, cur []uint64) {
		var cnt int64
		for u := lo; u < hi; u++ {
			row := cur[u*W : (u+1)*W]
			clear(row)
			for _, v := range g.Neighbors(u) {
				for j, x := range prev[int(v)*W : (int(v)+1)*W] {
					row[j] |= x
				}
			}
			seen := reach[u*W : (u+1)*W]
			c := 0
			for j, x := range row {
				x &^= seen[j]
				row[j] = x
				seen[j] |= x
				c += bits.OnesCount64(x)
			}
			if c > 0 && visit != nil && !visit(level, u, row, prev) {
				stop.Store(true)
			}
			cnt += int64(c)
		}
		found.Add(cnt)
	}
	var wg sync.WaitGroup
	pairs = []int64{0}
	for reached := int64(n); reached < int64(n)*int64(n) && !stop.Load(); reached += found.Load() {
		level := len(pairs)
		found.Store(0)
		for lo := chunk; lo < n; lo += chunk {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sweep(level, lo, min(lo+chunk, n), prev, cur)
			}()
		}
		sweep(level, 0, min(chunk, n), prev, cur)
		wg.Wait()
		if found.Load() == 0 {
			break
		}
		pairs = append(pairs, found.Load())
		prev, cur = cur, prev
	}
	return pairs
}

// PathStats aggregates all-pairs shortest-path results.
type PathStats struct {
	Diameter  int     // max finite distance (0 if N < 2)
	AvgDist   float64 // mean distance over ordered reachable pairs (u != v)
	Histogram []int64 // Histogram[d] = number of ordered pairs at distance d
	Connected bool    // every vertex reaches every other
	Pairs     int64   // number of ordered reachable pairs counted
}

// AllPairsStats aggregates diameter, average distance and the distance
// histogram over all ordered pairs: one SweepLevels with no visitor, whose
// pair count per level is all they need. The histogram has at least 16
// entries, so callers may index small distances unchecked. This is the
// workhorse behind Figure 1 (average hop count) and Table II (diameters).
func (g *Graph) AllPairsStats() PathStats {
	hist := g.SweepLevels(nil)
	out := PathStats{Diameter: len(hist) - 1}
	var sum int64
	for d, c := range hist {
		sum += int64(d) * c
		out.Pairs += c
	}
	out.Connected = out.Pairs == int64(g.n)*int64(g.n-1)
	if out.Pairs > 0 {
		out.AvgDist = float64(sum) / float64(out.Pairs)
	}
	for len(hist) < 16 {
		hist = append(hist, 0)
	}
	out.Histogram = hist
	return out
}

// IsConnected reports whether the graph is connected (vacuously true for
// N <= 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}
