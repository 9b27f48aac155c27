// Package torus implements k-ary n-cube (torus) networks; the paper
// compares against 3-dimensional (T3D, Cray Gemini) and 5-dimensional
// (T5D, IBM BlueGene/Q) tori with concentration p = 1.
package torus

import (
	"fmt"

	"slimfly/internal/graph"
	"slimfly/internal/topo"
)

// Torus is an n-dimensional torus with per-dimension sizes Dims.
type Torus struct {
	topo.Base
	Dims []int
}

// New constructs a torus with the given dimension sizes (each >= 2) and
// concentration p endpoints per router.
func New(dims []int, p int) (*Torus, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("torus: no dimensions")
	}
	if p < 1 {
		return nil, fmt.Errorf("torus: p=%d must be >= 1", p)
	}
	nr := 1
	for _, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("torus: dimension size %d must be >= 2", d)
		}
		nr *= d
	}
	t := &Torus{Dims: append([]int(nil), dims...)}
	t.TopoName = fmt.Sprintf("T%dD", len(dims))
	t.P = p
	t.N = nr * p
	// A dimension of size 2 contributes one channel, larger ones two.
	kp := 0
	diam := 0
	for _, d := range dims {
		if d == 2 {
			kp++
		} else {
			kp += 2
		}
		diam += d / 2
	}
	t.Kp = kp
	t.Diam = diam

	es := make([]graph.Edge, 0, nr*kp/2)
	coord := make([]int, len(dims))
	for u := 0; u < nr; u++ {
		// Decode coordinates of u.
		rem := u
		for i := len(dims) - 1; i >= 0; i-- {
			coord[i] = rem % dims[i]
			rem /= dims[i]
		}
		// Connect to +1 neighbour in every dimension (wrap); adding only
		// the +1 direction covers each undirected ring edge once, and in a
		// dimension of size 2, where coordinate 1's +1 neighbour is
		// coordinate 0's, only coordinate 0 adds it.
		stride := nr
		for i, d := range dims {
			stride /= d
			if d == 2 && coord[i] == 1 {
				continue
			}
			next := u + stride*(((coord[i]+1)%d)-coord[i])
			es = append(es, graph.Edge{U: int32(u), V: int32(next)})
		}
	}
	t.G = graph.MustFromEdges(nr, es)
	if err := t.Base.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// RouterDistance implements route.Oracle: per-dimension shortest wrap,
// summed. Coordinates are decoded last-dimension-first, mirroring the id
// encoding used by New.
func (t *Torus) RouterDistance(u, d int) int {
	dist := 0
	for i := len(t.Dims) - 1; i >= 0; i-- {
		di := t.Dims[i]
		cu, cd := u%di, d%di
		u /= di
		d /= di
		delta := cu - cd
		if delta < 0 {
			delta = -delta
		}
		if wrap := di - delta; wrap < delta {
			delta = wrap
		}
		dist += delta
	}
	return dist
}

// RouterDiameter implements route.Oracle: every dimension at its
// half-ring worst case.
func (t *Torus) RouterDiameter() int { return t.Diam }

// ForEndpoints returns near-cubic dimensions for an n-dimensional torus
// with at least the requested number of routers (p = 1 endpoints), growing
// dimensions round-robin so sides differ by at most one.
func ForEndpoints(n, routers int) []int {
	dims := make([]int, n)
	for i := range dims {
		dims[i] = 2
	}
	size := 1 << n
	for i := 0; size < routers; i = (i + 1) % n {
		size = size / dims[i] * (dims[i] + 1)
		dims[i]++
	}
	return dims
}
