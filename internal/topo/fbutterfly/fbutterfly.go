// Package fbutterfly implements the 3-level flattened butterfly (FBF-3) of
// Kim, Dally and Abts (ISCA'07) in its balanced configuration.
//
// Routers form a 3-dimensional array of side c; every router is directly
// connected to the c-1 other routers along each of its 3 dimensions (each
// dimension is a clique). With the balanced concentration p = c this gives
// Nr = c^3 routers, N = c^4 endpoints, radix k = 3(c-1) + c = 4c - 3
// (equivalently the paper's p = floor((k+3)/4)), and diameter 3 (one hop
// per dimension, Table II).
package fbutterfly

import (
	"fmt"

	"slimfly/internal/graph"
	"slimfly/internal/topo"
)

// FBF3 is a 3-dimensional flattened butterfly.
type FBF3 struct {
	topo.Base
	C int // routers per dimension
}

// Params returns routers, endpoints and radix for side c.
func Params(c int) (nr, n, k int) { return c * c * c, c * c * c * c, 4*c - 3 }

// New constructs an FBF-3 with side c >= 2.
func New(c int) (*FBF3, error) {
	if c < 2 {
		return nil, fmt.Errorf("fbutterfly: side c=%d must be >= 2", c)
	}
	nr, n, _ := Params(c)
	fb := &FBF3{C: c}
	fb.TopoName = "FBF-3"
	fb.P = c
	fb.Kp = 3 * (c - 1)
	fb.Diam = 3
	fb.N = n

	es := make([]graph.Edge, 0, nr*fb.Kp/2)
	add := func(u, v int) { es = append(es, graph.Edge{U: int32(u), V: int32(v)}) }
	id := func(x, y, z int) int { return (x*c+y)*c + z }
	for x := 0; x < c; x++ {
		for y := 0; y < c; y++ {
			for z := 0; z < c; z++ {
				u := id(x, y, z)
				for o := 1; o < c; o++ {
					// Add each intra-dimension clique edge once by
					// linking to strictly larger coordinates.
					if x+o < c {
						add(u, id(x+o, y, z))
					}
					if y+o < c {
						add(u, id(x, y+o, z))
					}
					if z+o < c {
						add(u, id(x, y, z+o))
					}
				}
			}
		}
	}
	fb.G = graph.MustFromEdges(nr, es)
	if err := fb.Base.Validate(); err != nil {
		return nil, err
	}
	return fb, nil
}

// Coords returns the 3-dimensional coordinates of router r.
func (fb *FBF3) Coords(r int) (x, y, z int) {
	c := fb.C
	return r / (c * c), (r / c) % c, r % c
}
