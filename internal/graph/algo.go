package graph

import (
	"runtime"
	"sync"
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
		for _, v := range g.adj[u] {
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

// PathStats aggregates all-pairs shortest-path results.
type PathStats struct {
	Diameter  int     // max finite distance (0 if N < 2)
	AvgDist   float64 // mean distance over ordered reachable pairs (u != v)
	Histogram []int64 // Histogram[d] = number of ordered pairs at distance d
	Connected bool    // every vertex reaches every other
	Pairs     int64   // number of ordered reachable pairs counted
}

// AllPairsStats runs BFS from every vertex in parallel and aggregates
// diameter, average distance, and the distance histogram. This is the
// workhorse behind Figure 1 (average hop count) and Table II (diameters).
func (g *Graph) AllPairsStats() PathStats {
	return g.allPairs(allVertices(g.n))
}

func allVertices(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	return vs
}

func (g *Graph) allPairs(sources []int) PathStats {
	nw := runtime.GOMAXPROCS(0)
	if nw > len(sources) {
		nw = len(sources)
	}
	if nw < 1 {
		nw = 1
	}
	type partial struct {
		hist      []int64
		sum       int64
		pairs     int64
		diameter  int
		connected bool
	}
	parts := make([]partial, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := partial{hist: make([]int64, 16), connected: true}
			dist := make([]int32, g.n)
			queue := make([]int32, 0, g.n)
			for i := w; i < len(sources); i += nw {
				g.BFSInto(sources[i], dist, queue)
				for v, d := range dist {
					if v == sources[i] {
						continue
					}
					if d == Unreachable {
						p.connected = false
						continue
					}
					for int(d) >= len(p.hist) {
						p.hist = append(p.hist, 0)
					}
					p.hist[d]++
					p.sum += int64(d)
					p.pairs++
					if int(d) > p.diameter {
						p.diameter = int(d)
					}
				}
			}
			parts[w] = p
		}(w)
	}
	wg.Wait()

	out := PathStats{Connected: true}
	var sum int64
	for _, p := range parts {
		if !p.connected {
			out.Connected = false
		}
		if p.diameter > out.Diameter {
			out.Diameter = p.diameter
		}
		sum += p.sum
		out.Pairs += p.pairs
		for d, c := range p.hist {
			for d >= len(out.Histogram) {
				out.Histogram = append(out.Histogram, 0)
			}
			out.Histogram[d] += c
		}
	}
	if out.Pairs > 0 {
		out.AvgDist = float64(sum) / float64(out.Pairs)
	}
	return out
}

// ConnectedComponents labels each vertex with a component id (0-based,
// ordered by smallest contained vertex) and returns the labels plus the
// number of components.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	labels = make([]int32, g.n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = int32(count)
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.adj[u] {
				if labels[v] == -1 {
					labels[v] = int32(count)
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return labels, count
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

// ShortestPathDAGFrom returns, for a BFS from src, the distance array and
// for every vertex the list of predecessors on shortest paths. Routing-table
// construction uses this to enumerate equal-cost minimal paths.
func (g *Graph) ShortestPathDAGFrom(src int) (dist []int32, preds [][]int32) {
	dist = g.BFS(src)
	preds = make([][]int32, g.n)
	for u := 0; u < g.n; u++ {
		if dist[u] <= 0 {
			continue
		}
		for _, v := range g.adj[u] {
			if dist[v] == dist[u]-1 {
				preds[u] = append(preds[u], v)
			}
		}
	}
	return dist, preds
}
