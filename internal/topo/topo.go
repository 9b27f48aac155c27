// Package topo defines the common interface implemented by every network
// topology in the Slim Fly reproduction, plus shared helpers for attaching
// endpoints to routers. Concrete constructions live in the subpackages
// (slimfly, dragonfly, fattree, fbutterfly, torus, hypercube, longhop,
// random, diam3).
//
// Terminology follows Table I of the paper: N endpoints, p endpoints per
// router (concentration), k' router-to-router channels (network radix),
// k = k' + p total router radix, Nr routers, D diameter.
package topo

import (
	"fmt"
	"sync"

	"slimfly/internal/graph"
)

// Topology is a router-level interconnection network with endpoints
// attached.
type Topology interface {
	// Name is a short identifier, e.g. "SF", "DF", "FT-3".
	Name() string
	// Graph returns the router-to-router graph. Callers must not modify it.
	Graph() *graph.Graph
	// Routers returns Nr.
	Routers() int
	// Endpoints returns N, the number of attached endpoints.
	Endpoints() int
	// Concentration returns p, the maximum number of endpoints on any
	// router.
	Concentration() int
	// NetworkRadix returns k', the maximum number of router-to-router
	// channels on any router.
	NetworkRadix() int
	// Radix returns the total router radix k = k' + p actually required.
	Radix() int
	// EndpointRouter maps endpoint id e in [0, N) to its router.
	EndpointRouter(e int) int
	// RouterEndpoints returns the endpoint ids attached to router r
	// (possibly empty, e.g. non-edge fat-tree routers).
	RouterEndpoints(r int) []int
	// DesignDiameter returns the diameter the construction guarantees
	// (Table II); measured diameters are obtained from Graph().
	DesignDiameter() int
}

// Base provides a reusable Topology implementation. Constructions embed it
// and fill the fields.
type Base struct {
	TopoName string
	G        *graph.Graph
	N        int // endpoints
	P        int // concentration (max endpoints/router)
	Kp       int // network radix k'
	Diam     int // design diameter

	// EpRouter maps endpoint -> router. If nil, endpoints are attached
	// uniformly: endpoint e lives on router e / P.
	EpRouter []int32

	// The lazily built reverse map, guarded by epsOnce: concurrent
	// simulations on the sweep pool share one topology and may trigger the
	// first build simultaneously. Router r's endpoints, ascending, are
	// routerEps[epsOff[r]:epsOff[r+1]].
	epsOnce   sync.Once
	routerEps []int
	epsOff    []int
}

// Name implements Topology.
func (b *Base) Name() string { return b.TopoName }

// Graph implements Topology.
func (b *Base) Graph() *graph.Graph { return b.G }

// Routers implements Topology.
func (b *Base) Routers() int { return b.G.N() }

// Endpoints implements Topology.
func (b *Base) Endpoints() int { return b.N }

// Concentration implements Topology.
func (b *Base) Concentration() int { return b.P }

// NetworkRadix implements Topology.
func (b *Base) NetworkRadix() int { return b.Kp }

// Radix implements Topology.
func (b *Base) Radix() int { return b.Kp + b.P }

// DesignDiameter implements Topology.
func (b *Base) DesignDiameter() int { return b.Diam }

// EndpointRouter implements Topology.
func (b *Base) EndpointRouter(e int) int {
	if b.EpRouter != nil {
		return int(b.EpRouter[e])
	}
	return e / b.P
}

// RouterEndpoints implements Topology. The lists are windows into one
// slab, counting-sorted by router on first use.
func (b *Base) RouterEndpoints(r int) []int {
	b.epsOnce.Do(func() {
		// off[h] counts up to the end of router h's list; filling the slab
		// from the last endpoint down moves it back to the start.
		n := b.G.N()
		off := make([]int, n+1)
		for e := 0; e < b.N; e++ {
			off[b.EndpointRouter(e)]++
		}
		for h := 1; h <= n; h++ {
			off[h] += off[h-1]
		}
		eps := make([]int, b.N)
		for e := b.N - 1; e >= 0; e-- {
			h := b.EndpointRouter(e)
			off[h]--
			eps[off[h]] = e
		}
		b.routerEps, b.epsOff = eps, off
	})
	lo, hi := b.epsOff[r], b.epsOff[r+1]
	return b.routerEps[lo:hi:hi]
}

// Validate performs structural sanity checks shared by all constructions:
// endpoint mapping in range, concentration respected, network radix not
// exceeded. Constructors call it before returning.
func (b *Base) Validate() error {
	if b.G == nil {
		return fmt.Errorf("topo %s: nil graph", b.TopoName)
	}
	if b.P <= 0 && b.N > 0 {
		return fmt.Errorf("topo %s: concentration %d with %d endpoints", b.TopoName, b.P, b.N)
	}
	if b.EpRouter != nil && len(b.EpRouter) != b.N {
		return fmt.Errorf("topo %s: EpRouter length %d != N %d", b.TopoName, len(b.EpRouter), b.N)
	}
	counts := make([]int, b.G.N())
	for e := 0; e < b.N; e++ {
		r := b.EndpointRouter(e)
		if r < 0 || r >= b.G.N() {
			return fmt.Errorf("topo %s: endpoint %d on invalid router %d", b.TopoName, e, r)
		}
		counts[r]++
	}
	for r, c := range counts {
		if c > b.P {
			return fmt.Errorf("topo %s: router %d hosts %d endpoints > p=%d", b.TopoName, r, c, b.P)
		}
	}
	if md := b.G.MaxDegree(); md > b.Kp {
		return fmt.Errorf("topo %s: max degree %d exceeds declared network radix %d", b.TopoName, md, b.Kp)
	}
	return nil
}

// Summary is a human-readable one-line description used by cmd tools.
func Summary(t Topology) string {
	return fmt.Sprintf("%s: N=%d endpoints, Nr=%d routers, p=%d, k'=%d, k=%d, D=%d",
		t.Name(), t.Endpoints(), t.Routers(), t.Concentration(), t.NetworkRadix(), t.Radix(), t.DesignDiameter())
}
