package main

// This file holds application-level traffic generators for the HPC
// workloads the paper motivates (Section I and Section V): stencil halo
// exchanges, collective operations (all-to-all, all-gather, allreduce),
// and irregular graph computations with skewed destination
// distributions. Each generator implements traffic.Pattern and can be
// fed directly to the simulator.
//
// Stateful generators (AllToAll) must not be shared between concurrently
// running simulations; construct one per run.

import (
	"math"

	"slimfly/internal/stats"
	"slimfly/internal/traffic"
)

// Stencil3D models a 3D nearest-neighbour halo exchange: ranks form a
// dx*dy*dz process grid (non-periodic boundaries are clamped), and each
// injected packet targets one of the up-to-six face neighbours uniformly.
type Stencil3D struct {
	Dx, Dy, Dz int
}

// NewStencil3D builds the largest near-cubic 3D decomposition that fits
// within n ranks (dx*dy*dz <= n); ranks beyond the grid are inactive.
func NewStencil3D(n int) Stencil3D {
	side := int(math.Cbrt(float64(n) + 0.5))
	if side < 1 {
		side = 1
	}
	for side*side*side > n {
		side--
	}
	d := [3]int{side, side, side}
	// Grow dimensions round-robin while the grid still fits.
	for i := 0; ; i = (i + 1) % 3 {
		d[i]++
		if d[0]*d[1]*d[2] > n {
			d[i]--
			break
		}
	}
	return Stencil3D{Dx: d[0], Dy: d[1], Dz: d[2]}
}

// Name implements traffic.Pattern.
func (s Stencil3D) Name() string { return "stencil3d" }

// Ranks returns the number of active ranks.
func (s Stencil3D) Ranks() int { return s.Dx * s.Dy * s.Dz }

// Dest implements traffic.Pattern.
func (s Stencil3D) Dest(src int, rng *stats.RNG) int {
	if src >= s.Ranks() {
		return -1
	}
	x := src % s.Dx
	y := (src / s.Dx) % s.Dy
	z := src / (s.Dx * s.Dy)
	// Collect valid face neighbours.
	var cand [6]int
	n := 0
	if x > 0 {
		cand[n] = src - 1
		n++
	}
	if x < s.Dx-1 {
		cand[n] = src + 1
		n++
	}
	if y > 0 {
		cand[n] = src - s.Dx
		n++
	}
	if y < s.Dy-1 {
		cand[n] = src + s.Dx
		n++
	}
	if z > 0 {
		cand[n] = src - s.Dx*s.Dy
		n++
	}
	if z < s.Dz-1 {
		cand[n] = src + s.Dx*s.Dy
		n++
	}
	if n == 0 {
		return -1
	}
	return cand[rng.Intn(n)]
}

// AllToAll models a personalised all-to-all (MPI_Alltoall): every source
// cycles through all other destinations round-robin, so over a full sweep
// each pair communicates exactly once. Stateful: one instance per run.
type AllToAll struct {
	N    int
	next []int32
}

// NewAllToAll creates an all-to-all over n ranks.
func NewAllToAll(n int) *AllToAll {
	a := &AllToAll{N: n, next: make([]int32, n)}
	for s := range a.next {
		a.next[s] = int32((s + 1) % n)
	}
	return a
}

// Name implements traffic.Pattern.
func (a *AllToAll) Name() string { return "alltoall" }

// Dest implements traffic.Pattern.
func (a *AllToAll) Dest(src int, _ *stats.RNG) int {
	d := a.next[src]
	nd := int(d) + 1
	if nd == src {
		nd++
	}
	a.next[src] = int32(nd % a.N)
	if int(a.next[src]) == src {
		a.next[src] = int32((nd + 1) % a.N)
	}
	return int(d)
}

// AllGatherRing models a ring all-gather: rank i always sends to rank
// (i+1) mod N, the classic bandwidth-optimal collective stage.
type AllGatherRing struct{ N int }

// Name implements traffic.Pattern.
func (AllGatherRing) Name() string { return "allgather-ring" }

// Dest implements traffic.Pattern.
func (a AllGatherRing) Dest(src int, _ *stats.RNG) int { return (src + 1) % a.N }

// AllReduceRD models recursive-doubling allreduce: each packet targets the
// partner at a random power-of-two distance (one of the log2(N) exchange
// rounds). Only the largest power-of-two subset of ranks is active, as in
// the collectives literature.
type AllReduceRD struct {
	bits int
}

// NewAllReduceRD creates the pattern over the largest 2^b <= n ranks.
func NewAllReduceRD(n int) AllReduceRD {
	b := 0
	for (1 << (b + 1)) <= n {
		b++
	}
	return AllReduceRD{bits: b}
}

// Name implements traffic.Pattern.
func (AllReduceRD) Name() string { return "allreduce-rd" }

// Ranks returns the number of active ranks.
func (a AllReduceRD) Ranks() int { return 1 << a.bits }

// Dest implements traffic.Pattern.
func (a AllReduceRD) Dest(src int, rng *stats.RNG) int {
	if src >= 1<<a.bits {
		return -1
	}
	round := rng.Intn(a.bits)
	return src ^ (1 << round)
}

// GraphZipf models irregular graph computations (BFS, PageRank frontiers):
// destinations follow a Zipf-like distribution over a randomly permuted
// vertex ranking, creating the hotspots irregular workloads exhibit.
type GraphZipf struct {
	N     int
	Theta float64 // skew in (0,1); higher = more skewed
	rank  []int32 // permutation: popularity rank -> endpoint
	cdf   []float64
}

// NewGraphZipf creates a skewed pattern over n endpoints. theta = 0.7 is a
// typical graph-workload skew.
func NewGraphZipf(n int, theta float64, seed uint64) *GraphZipf {
	g := &GraphZipf{N: n, Theta: theta}
	rng := stats.NewRNG(seed)
	perm := rng.Perm(n)
	g.rank = make([]int32, n)
	for i, p := range perm {
		g.rank[i] = int32(p)
	}
	// Zipf CDF over ranks: weight(i) ~ 1/(i+1)^theta.
	g.cdf = make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		g.cdf[i] = sum
	}
	for i := range g.cdf {
		g.cdf[i] /= sum
	}
	return g
}

// Name implements traffic.Pattern.
func (g *GraphZipf) Name() string { return "graph-zipf" }

// Dest implements traffic.Pattern.
func (g *GraphZipf) Dest(src int, rng *stats.RNG) int {
	u := rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, g.N-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	d := int(g.rank[lo])
	if d == src {
		d = (d + 1) % g.N
	}
	return d
}

// Interface checks.
var (
	_ traffic.Pattern = Stencil3D{}
	_ traffic.Pattern = (*AllToAll)(nil)
	_ traffic.Pattern = AllGatherRing{}
	_ traffic.Pattern = AllReduceRD{}
	_ traffic.Pattern = (*GraphZipf)(nil)
)
