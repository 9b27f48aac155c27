// Package moore implements the Moore bound (Section II-A of the paper): the
// upper limit on the number of radix-k' routers in a network of diameter D,
//
//	Nr <= 1 + k' * sum_{i=0}^{D-1} (k'-1)^i
//
// and the comparison ratios plotted in Figures 5a and 5b.
package moore

// Bound returns the Moore bound on the number of vertices of a graph with
// maximum degree kp and diameter d. For kp <= 2 the walk-counting formula
// degenerates; the exact values (path/ring bounds) are returned instead.
func Bound(kp, d int) int64 {
	if d < 0 || kp < 0 {
		return 0
	}
	if d == 0 || kp == 0 {
		return 1
	}
	if kp == 1 {
		return 2
	}
	if kp == 2 {
		return int64(2*d + 1) // ring of 2d+1 vertices
	}
	sum := int64(1)
	term := int64(1)
	for i := 1; i < d; i++ {
		term *= int64(kp - 1)
		sum += term
	}
	return 1 + int64(kp)*sum
}

// Bound2 is the diameter-2 Moore bound, k'^2 + 1.
func Bound2(kp int) int64 { return Bound(kp, 2) }

// Bound3 is the diameter-3 Moore bound.
func Bound3(kp int) int64 { return Bound(kp, 3) }

// Fraction returns nr as a fraction of the Moore bound for (kp, d); this is
// the "fraction of the upper bound" annotation in Figures 5a/5b.
func Fraction(nr int, kp, d int) float64 {
	b := Bound(kp, d)
	if b == 0 {
		return 0
	}
	return float64(nr) / float64(b)
}
