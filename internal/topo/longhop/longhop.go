// Package longhop implements an LH-HC-style Long Hop network: a binary
// hypercube augmented with L additional "long" links per router derived
// from a deterministic linear code, following the spirit of Tomic's
// construction (Section E-S-3 of [56] in the paper).
//
// Substitution note (see DESIGN.md): the exact error-correcting codes used
// by Tomic are not published in closed form; we derive the long-link masks
// from a deterministic maximum-distance-separable-style generator: mask m_i
// covers an evenly spread half of the dimensions, rotated per link. This
// reproduces the properties the paper relies on -- degree n + L, diameter
// dropping to 4-6, and bisection bandwidth around 3N/2 -- which is all that
// Figures 1 and 5c and the cost/power roster use.
package longhop

import (
	"fmt"
	"math/bits"

	"slimfly/internal/graph"
	"slimfly/internal/topo"
)

// LongHop is an augmented hypercube.
type LongHop struct {
	topo.Base
	Dim   int      // base hypercube dimension
	Masks []uint32 // XOR masks of the long links
}

// DefaultExtra returns the number of extra long links used for dimension n,
// chosen so the radix matches the paper's LH-HC examples (N = 8192 = 2^13
// with k = 19 implies L = 6).
func DefaultExtra(n int) int { return (n + 1) / 2 }

// New constructs a Long Hop network over an n-dimensional hypercube with
// extra long links per router. extra must be in [1, n-1].
func New(n, extra int) (*LongHop, error) {
	if n < 3 || n > 30 {
		return nil, fmt.Errorf("longhop: dimension %d out of range [3,30]", n)
	}
	if extra < 1 || extra >= n {
		return nil, fmt.Errorf("longhop: extra=%d out of range [1,%d]", extra, n-1)
	}
	lh := &LongHop{Dim: n}
	lh.TopoName = "LH-HC"
	lh.P = 1
	lh.Kp = n + extra
	size := 1 << n
	lh.N = size

	// Deterministic long-link masks: heavy-weight masks spreading across
	// the dimensions. The first is the full complement (folded hypercube),
	// the rest rotate an alternating-bit pattern of weight ~n/2, giving
	// long links that cross many dimensions at once.
	full := uint32(size - 1)
	masks := []uint32{full}
	pattern := uint32(0)
	for b := 0; b < n; b += 2 {
		pattern |= 1 << b
	}
	rot := func(m uint32, r int) uint32 {
		r %= n
		return ((m << r) | (m >> (n - r))) & full
	}
	seen := map[uint32]bool{full: true, 0: true}
	// Rotations of the alternating pattern, then rotations of its
	// perturbations, give as many distinct heavy masks as needed.
	for salt := uint32(0); len(masks) < extra && salt < uint32(size); salt++ {
		base := pattern ^ salt
		for r := 1; r <= n && len(masks) < extra; r++ {
			m := rot(base, r)
			if bits.OnesCount32(m) < 2 || seen[m] {
				continue
			}
			seen[m] = true
			masks = append(masks, m)
		}
	}
	if len(masks) < extra {
		return nil, fmt.Errorf("longhop: could not derive %d distinct masks for n=%d", extra, n)
	}
	lh.Masks = masks

	es := make([]graph.Edge, 0, size*(n+len(masks))/2)
	for u := 0; u < size; u++ {
		for b := 0; b < n; b++ {
			if v := u ^ (1 << b); u < v {
				es = append(es, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
		for _, m := range masks {
			if v := u ^ int(m); u < v {
				es = append(es, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	g := graph.MustFromEdges(size, es)
	lh.G = g

	// Measured diameter (4-6 in the paper's range for 2^8..2^13).
	ecc, _ := g.Eccentricity(0) // vertex-transitive: one BFS suffices
	lh.Diam = ecc
	if err := lh.Base.Validate(); err != nil {
		return nil, err
	}
	return lh, nil
}
