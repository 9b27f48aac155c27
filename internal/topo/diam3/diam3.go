// Package diam3 covers the diameter-3 constructions of Section II-C: the
// projective-plane polarity graph P_u (a diameter-2 building block of the
// Bermond-Delorme-Farhi construction) and the analytic router-count models for BDF and Delorme (DEL) graphs used in
// Figure 5b.
package diam3

import (
	"fmt"

	"slimfly/internal/gf"
	"slimfly/internal/graph"
)

// PolarityGraph builds P_u, the Erdos-Renyi polarity graph of the
// projective plane PG(2, u) for a prime power u: vertices are the
// u^2 + u + 1 projective points; M_i ~ M_j iff M_j lies on the line D_i
// paired with M_i by the standard polarity (dot product zero). The graph
// has degree u+1 (u for the u+1 absolute points), u^2+u+1 vertices, and
// diameter 2 (Section II-C1b of the paper).
func PolarityGraph(u int) (*graph.Graph, error) {
	f, err := gf.New(u)
	if err != nil {
		return nil, fmt.Errorf("diam3: polarity graph needs prime power order: %w", err)
	}
	pts := projectivePoints(f)
	n := len(pts)
	if n != u*u+u+1 {
		return nil, fmt.Errorf("diam3: got %d projective points, want %d", n, u*u+u+1)
	}
	var es []graph.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dot(f, pts[i], pts[j]) == 0 {
				es = append(es, graph.Edge{U: int32(i), V: int32(j)})
			}
		}
	}
	return graph.MustFromEdges(n, es), nil
}

// projectivePoints enumerates canonical representatives of PG(2, q):
// (1, a, b), (0, 1, a), (0, 0, 1).
func projectivePoints(f *gf.Field) [][3]int {
	var pts [][3]int
	for a := 0; a < f.Q; a++ {
		for b := 0; b < f.Q; b++ {
			pts = append(pts, [3]int{1, a, b})
		}
	}
	for a := 0; a < f.Q; a++ {
		pts = append(pts, [3]int{0, 1, a})
	}
	pts = append(pts, [3]int{0, 0, 1})
	return pts
}

func dot(f *gf.Field, a, b [3]int) int {
	s := f.Mul(a[0], b[0])
	s = f.Add(s, f.Mul(a[1], b[1]))
	return f.Add(s, f.Mul(a[2], b[2]))
}

// BDFRouters returns the number of routers of a Bermond-Delorme-Farhi graph
// with network radix kp: Nr = 8/27 kp^3 - 4/9 kp^2 + 2/3 kp (Section II-C),
// over a common denominator in integers: exact, as a BDF radix is a
// multiple of 3, where floats could round just below and truncate.
func BDFRouters(kp int) int {
	return (8*kp*kp*kp - 12*kp*kp + 18*kp) / 27
}

// BDFRadix returns the network radix k' = 3(u+1)/2 of the BDF construction
// for an odd prime power u.
func BDFRadix(u int) int { return 3 * (u + 1) / 2 }

// DELParams returns the Delorme-graph parameters for prime power v:
// k' = (v+1)^2 and Nr = (v+1)^2 (v^2+1)^2 (Section II-C).
func DELParams(v int) (kp, nr int) {
	kp = (v + 1) * (v + 1)
	vv := v*v + 1
	return kp, kp * vv * vv
}
