package graph_test

import (
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"slimfly/internal/graph"
	"slimfly/internal/graphtest"
)

// TestSweepLevelsMatchesBFS rebuilds the distance matrix from what
// SweepLevels hands its visitor and compares it, the previous-level rows
// and the per-level pair counts with one BFS per vertex, on the pin list
// and 200 seeded random graphs at 1, 2 and 5 processors.
func TestSweepLevelsMatchesBFS(t *testing.T) {
	cases := append(graphtest.Pinned(t), graphtest.Randoms(200)...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		g, n := c.G, c.G.N()
		W := (n + 63) / 64
		want := make([][]int32, n) // want[u][d], by BFS
		var hist []int64
		for u := range want {
			want[u] = g.BFS(u)
			for _, d := range want[u] {
				if d > 0 {
					hist = append(hist, make([]int64, max(0, int(d)+1-len(hist)))...)
					hist[d]++
				}
			}
		}
		if hist == nil {
			hist = []int64{0}
		}
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			got := make([][]int32, n)
			for u := range got {
				got[u] = slices.Repeat([]int32{graph.Unreachable}, n)
				got[u][u] = 0
			}
			var bad atomic.Int64
			pairs := g.SweepLevels(func(level, u int, frontier, prev []uint64) bool {
				if len(frontier) != W || len(prev) != n*W {
					bad.Add(1)
					return false
				}
				for j, w := range frontier {
					for ; w != 0; w &= w - 1 {
						d := j<<6 | bits.TrailingZeros64(w)
						if d >= n || got[u][d] != graph.Unreachable {
							bad.Add(1) // beyond n, or handed out twice
						} else {
							got[u][d] = int32(level)
						}
					}
				}
				// Row v of prev is the level before, for every neighbour
				// (checked on the graphs small enough to afford it).
				for _, v := range g.Neighbors(u) {
					for d := 0; d < n && n <= 300; d++ {
						if (prev[int(v)*W+d>>6]>>(d&63)&1 == 1) != (int(want[v][d]) == level-1) {
							bad.Add(1)
						}
					}
				}
				return true
			})
			if bad.Load() != 0 {
				t.Errorf("GOMAXPROCS=%d %s: %d malformed frontier bits or previous-level rows", procs, c.Name, bad.Load())
			}
			if !slices.Equal(pairs, hist) {
				t.Errorf("GOMAXPROCS=%d %s: pairs per level %v, BFS says %v", procs, c.Name, pairs, hist)
			}
			for u := range got {
				if !slices.Equal(got[u], want[u]) {
					t.Errorf("GOMAXPROCS=%d %s: distances from %d differ from BFS", procs, c.Name, u)
					break
				}
			}
		}
	}
}

// TestSweepLevelsStops: a visit that returns false ends the sweep after
// its level, on every worker.
func TestSweepLevelsStops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		var deepest atomic.Int64
		pairs := graphtest.Ring(200).SweepLevels(func(level, u int, _, _ []uint64) bool {
			if int64(level) > deepest.Load() {
				deepest.Store(int64(level))
			}
			return level < 3 || u != 150
		})
		if want := []int64{0, 400, 400, 400}; !slices.Equal(pairs, want) || deepest.Load() != 3 {
			t.Errorf("GOMAXPROCS=%d: stopped at level 3 by vertex 150: pairs %v (want %v), deepest visit %d", procs, pairs, want, deepest.Load())
		}
	}
}

// TestSweepLevelsScratch: the kernel allocates its three n*W-word slabs
// and nothing that grows with the graph's diameter beyond bytes per level
// (the returned count, and a closure per extra worker): the 200-ring, 100
// levels deep, allocates what a 200-vertex graph of diameter 2 does.
func TestSweepLevelsScratch(t *testing.T) {
	const n = 200
	hub := graphtest.Ring(n).Edges() // plus a hub: diameter 2
	for i := 2; i < n-1; i++ {
		hub = append(hub, graph.Edge{U: 0, V: int32(i)})
	}
	shallow := graph.MustFromEdges(n, hub)
	allocated := func(g *graph.Graph) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.SweepLevels(nil)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slabs = 3 * n * ((n + 63) / 64) * 8
	deep, flat := allocated(graphtest.Ring(n)), allocated(shallow)
	t.Logf("three slabs %d bytes; allocated: %d on the diameter-2 graph, %d on the 200-ring", slabs, flat, deep)
	if flat < slabs || flat > slabs+2048 {
		t.Errorf("diameter-2 graph: %d bytes allocated, the three slabs are %d", flat, slabs)
	}
	// One slab is n*W*8 = 6 400 bytes: a slab per level would be 640 000.
	if deep < flat || deep-flat > 100*128*uint64(runtime.GOMAXPROCS(0)) {
		t.Errorf("200-ring: %d bytes allocated against %d on a shallow graph of the same size", deep, flat)
	}
}
