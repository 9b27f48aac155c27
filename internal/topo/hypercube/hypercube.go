// Package hypercube implements the binary n-cube (HC, e.g. NASA Pleiades)
// with concentration p = 1: N = 2^n routers of degree n, diameter n.
package hypercube

import (
	"fmt"
	"math/bits"

	"slimfly/internal/graph"
	"slimfly/internal/topo"
)

// Hypercube is a binary n-dimensional hypercube.
type Hypercube struct {
	topo.Base
	Dim int
}

// New constructs an n-dimensional hypercube, n >= 1.
func New(n int) (*Hypercube, error) {
	if n < 1 || n > 30 {
		return nil, fmt.Errorf("hypercube: dimension %d out of range [1,30]", n)
	}
	hc := &Hypercube{Dim: n}
	hc.TopoName = "HC"
	hc.P = 1
	hc.Kp = n
	hc.Diam = n
	size := 1 << n
	hc.N = size

	es := make([]graph.Edge, 0, size*n/2)
	for u := 0; u < size; u++ {
		for b := 0; b < n; b++ {
			if v := u ^ (1 << b); u < v {
				es = append(es, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	hc.G = graph.MustFromEdges(size, es)
	if err := hc.Base.Validate(); err != nil {
		return nil, err
	}
	return hc, nil
}

// RouterDistance implements route.Oracle: router ids are coordinate bit
// vectors, so the hop distance is the Hamming distance u XOR d.
func (hc *Hypercube) RouterDistance(u, d int) int {
	return bits.OnesCount32(uint32(u ^ d))
}

// RouterDiameter implements route.Oracle: the all-bits-flipped pair.
func (hc *Hypercube) RouterDiameter() int { return hc.Dim }
