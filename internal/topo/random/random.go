// Package random implements DLN random shortcut topologies (Koibuchi et
// al., ISCA'12): a base ring of Nr routers with y additional random
// shortcut edges initiated per router, giving average degree 2 + 2y. The
// paper uses the balanced concentration p = floor(sqrt(k)).
package random

import (
	"fmt"
	"math"
	"slices"

	"slimfly/internal/graph"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
)

// DLN is a ring-plus-random-shortcuts topology (DLN-2-y).
type DLN struct {
	topo.Base
	Y    int
	Seed uint64
}

// New constructs a DLN with nr routers, y shortcuts initiated per router, a
// deterministic seed, and concentration p endpoints per router.
func New(nr, y, p int, seed uint64) (*DLN, error) {
	if nr < 4 {
		return nil, fmt.Errorf("random: nr=%d must be >= 4", nr)
	}
	if y < 1 {
		return nil, fmt.Errorf("random: y=%d must be >= 1", y)
	}
	if p < 1 {
		return nil, fmt.Errorf("random: p=%d must be >= 1", p)
	}
	d := &DLN{Y: y, Seed: seed}
	d.TopoName = "DLN"
	d.P = p
	d.N = nr * p

	// Each router receives y random shortcuts (DLN-2-y), so the degree is
	// capped at 2 + y: draw random stub pairs, configuration-model style.
	// nbr[u*cap:u*cap+deg[u]] lists u's neighbours so far, so a drawn pair
	// that is already linked is found by a short scan.
	cap := 2 + y
	deg := make([]int, nr)
	nbr := make([]int32, nr*cap)
	es := make([]graph.Edge, 0, nr*cap/2)
	link := func(u, v int32) bool {
		if slices.Contains(nbr[int(u)*cap:int(u)*cap+deg[u]], v) {
			return false
		}
		nbr[int(u)*cap+deg[u]] = v
		nbr[int(v)*cap+deg[v]] = u
		deg[u]++
		deg[v]++
		es = append(es, graph.Edge{U: u, V: v})
		return true
	}
	for i := 0; i < nr; i++ {
		link(int32(i), int32((i+1)%nr))
	}
	rng := stats.NewRNG(seed)
	var open []int32 // vertices with spare shortcut capacity
	for u := 0; u < nr; u++ {
		open = append(open, int32(u))
	}
	misses := 0
	for len(open) > 1 && misses < 64*nr {
		i := rng.Intn(len(open))
		j := rng.Intn(len(open))
		u, v := open[i], open[j]
		if u == v || !link(u, v) {
			misses++
			continue
		}
		misses = 0
		// Drop saturated vertices from the pool (check the higher index
		// first so removal does not invalidate the other).
		if i < j {
			i, j = j, i
			u, v = v, u
		}
		if deg[u] >= cap {
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		if deg[v] >= cap {
			// v's position may have moved if it was the swapped tail.
			for k2, w := range open {
				if w == v {
					open[k2] = open[len(open)-1]
					open = open[:len(open)-1]
					break
				}
			}
		}
	}
	g := graph.MustFromEdges(nr, es)
	d.G = g
	d.Kp = g.MaxDegree()
	ecc, conn := g.Eccentricity(0)
	if !conn {
		return nil, fmt.Errorf("random: generated DLN disconnected (nr=%d y=%d seed=%d)", nr, y, seed)
	}
	// The ring is not vertex-transitive once shortcuts are added; the
	// eccentricity of vertex 0 is a lower bound, so refine with a few more
	// sources for the reported design diameter.
	for s := 1; s < nr && s < 8; s++ {
		e, _ := g.Eccentricity(s * (nr / 8 % nr))
		if e > ecc {
			ecc = e
		}
	}
	d.Diam = ecc
	if err := d.Base.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// MustNew is New but panics on error.
func MustNew(nr, y, p int, seed uint64) *DLN {
	d, err := New(nr, y, p, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// BalancedConcentration returns the paper's p = floor(sqrt(k)) for a DLN
// with total radix k.
func BalancedConcentration(k int) int { return int(math.Sqrt(float64(k))) }

// Balanced constructs a DLN whose radix k matches the requested value:
// y is chosen so the router degree (2 + 2y on average) plus p = floor(
// sqrt(k)) fits within k.
func Balanced(nr, k int, seed uint64) (*DLN, error) {
	p := BalancedConcentration(k)
	y := (k - p - 2) / 2
	if y < 1 {
		return nil, fmt.Errorf("random: radix %d too small for balanced DLN", k)
	}
	return New(nr, y, p, seed)
}
