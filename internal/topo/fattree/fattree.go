// Package fattree implements the three-level fat tree (p-ary 3-tree) used
// by the paper as the high-bisection-bandwidth comparison topology (FT-3).
//
// The network is parameterised by p, the arity: N = p^3 endpoints,
// Nr = 3*p^2 switches in three levels (edge, aggregation, core), and switch
// radix k = 2p (p down, p up; core switches use only p down ports). This
// matches the paper's simulated FT-3 (k = 44, p = 22, Nr = 1452,
// N = 10648). The full bisection bandwidth of N/2 and the diameter of 4
// (Table II) follow from the construction.
//
// Levels and wiring (k-ary n-tree, Petrini & Vernon):
//
//	edge switch  E(a,b): hosts endpoints (a,b,c), c in [0,p)
//	agg  switch  A(a,j): connects to E(a,b) for every b   (same pod a)
//	core switch  C(i,j): connects to A(a,j) for every a   (same column j)
package fattree

import (
	"fmt"

	"slimfly/internal/graph"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// FatTree is a 3-level p-ary fat tree.
type FatTree struct {
	topo.Base
	Arity int // p
}

// Params returns routers, endpoints and radix for arity p.
func Params(p int) (nr, n, k int) { return 3 * p * p, p * p * p, 2 * p }

// New constructs a 3-level fat tree with arity p >= 2.
func New(p int) (*FatTree, error) {
	if p < 2 {
		return nil, fmt.Errorf("fattree: arity p=%d must be >= 2", p)
	}
	nr, n, _ := Params(p)
	ft := &FatTree{Arity: p}
	ft.TopoName = "FT-3"
	ft.P = p
	ft.Kp = 2 * p // up+down ports on edge/agg switches
	ft.Diam = 4
	ft.N = n

	es := make([]graph.Edge, 0, 2*p*p*p)
	add := func(u, v int) { es = append(es, graph.Edge{U: int32(u), V: int32(v)}) }
	// Router ids: edge = a*p+b; agg = p^2 + a*p+j; core = 2p^2 + i*p+j.
	edge := func(a, b int) int { return a*p + b }
	agg := func(a, j int) int { return p*p + a*p + j }
	core := func(i, j int) int { return 2*p*p + i*p + j }
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			for j := 0; j < p; j++ {
				add(edge(a, b), agg(a, j))
			}
		}
	}
	for a := 0; a < p; a++ {
		for j := 0; j < p; j++ {
			for i := 0; i < p; i++ {
				add(agg(a, j), core(i, j))
			}
		}
	}
	ft.G = graph.MustFromEdges(nr, es)

	// Endpoints live only on edge switches: endpoint (a,b,c) -> E(a,b).
	ft.EpRouter = make([]int32, n)
	for e := 0; e < n; e++ {
		ft.EpRouter[e] = int32(e / p) // edge switch ids are 0..p^2-1
	}
	if err := ft.Base.Validate(); err != nil {
		return nil, err
	}
	return ft, nil
}

// MustNew is New but panics on error.
func MustNew(p int) *FatTree {
	ft, err := New(p)
	if err != nil {
		panic(err)
	}
	return ft
}

// Level returns 0 for edge, 1 for aggregation, 2 for core switches.
func (ft *FatTree) Level(r int) int { return r / (ft.Arity * ft.Arity) }

// Pod returns the pod index of an edge or aggregation switch (and -1 for
// core switches, which belong to no pod).
func (ft *FatTree) Pod(r int) int {
	if ft.Level(r) == 2 {
		return -1
	}
	return (r % (ft.Arity * ft.Arity)) / ft.Arity
}

// WorstCase implements the scenario WorstCaser capability: the cross-pod
// permutation forcing every packet through the core level.
func (ft *FatTree) WorstCase(_ route.Router, _ uint64) traffic.Pattern {
	return traffic.WorstCaseFT(ft.Arity, ft)
}

// RouterDistance implements route.Oracle by level arithmetic: paths go up
// to the lowest common level and back down, so the distance depends only
// on the two levels and whether the switches share a pod (edge/agg) or a
// column (agg(a,j)/core(i,j) connect iff same j).
func (ft *FatTree) RouterDistance(u, d int) int {
	if u == d {
		return 0
	}
	p := ft.Arity
	lu, ld := ft.Level(u), ft.Level(d)
	if lu > ld {
		u, d = d, u
		lu, ld = ld, lu
	}
	switch {
	case lu == 0 && ld == 0: // edge-edge: via agg in pod, else via core
		if ft.Pod(u) == ft.Pod(d) {
			return 2
		}
		return 4
	case lu == 0 && ld == 1: // edge-agg: direct in pod, else up-over-down
		if ft.Pod(u) == ft.Pod(d) {
			return 1
		}
		return 3
	case lu == 0: // edge-core: every core is 2 hops from every edge
		return 2
	case lu == 1 && ld == 1: // agg-agg: same pod via edge, same column via core
		if ft.Pod(u) == ft.Pod(d) || u%p == d%p {
			return 2
		}
		return 4
	case lu == 1: // agg-core: direct in column, else via an edge+agg detour
		if u%p == d%p {
			return 1
		}
		return 3
	default: // core-core: same column via agg, else down-over-up
		if u%p == d%p {
			return 2
		}
		return 4
	}
}

// RouterDiameter implements route.Oracle: edge to edge across pods.
func (ft *FatTree) RouterDiameter() int { return 4 }
