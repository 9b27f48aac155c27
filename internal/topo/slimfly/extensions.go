package slimfly

import (
	"fmt"
	"math"

	"slimfly/internal/graph"
	"slimfly/internal/stats"
	"slimfly/internal/topo"
)

// Extensions from Section VII of the paper ("Discussion"), implemented as
// the future work the authors outline.

// Augmented is a Slim Fly whose spare router ports carry random shortcut
// channels (Section VII-A). It is its own type, not a *SlimFly, because
// the MMS closed forms (RouterDistance, RouterNextPort) describe the
// un-augmented graph: an augmented network must not satisfy route.Oracle,
// so every routing policy resolves it to BFS tables.
type Augmented struct {
	topo.Base
	// SF is the MMS network the shortcuts were added to, untouched: its
	// labels still name the routers (and their racks).
	SF *SlimFly
}

// NewWithRandomShortcuts builds a Slim Fly and then fills `extra` unused
// ports per router with random shortcut channels (Section VII-A: "add
// random channels to utilize empty ports of routers with radix > k",
// combining SF with the random-shortcut ideas of Koibuchi et al.). The
// added edges are drawn uniformly, capped so no router exceeds k' + extra
// network ports; the result keeps diameter <= 2 and improves average
// distance.
func NewWithRandomShortcuts(q, extra int, seed uint64) (*Augmented, error) {
	if extra < 1 {
		return nil, fmt.Errorf("slimfly: extra=%d shortcuts must be >= 1", extra)
	}
	sf, err := New(q)
	if err != nil {
		return nil, err
	}
	es := sf.G.Edges()
	cap := sf.Kp + extra
	rng := stats.NewRNG(seed)
	n := sf.G.N()
	deg := make([]int, n)
	for u := range deg {
		deg[u] = sf.G.Degree(u)
	}
	added := map[graph.Edge]bool{}
	// Configuration-model pairing among routers with spare ports.
	misses := 0
	for misses < 64*n {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || deg[u] >= cap || deg[v] >= cap {
			misses++
			continue
		}
		e := graph.Edge{U: int32(min(u, v)), V: int32(max(u, v))}
		if sf.G.HasEdge(u, v) || added[e] {
			misses++
			continue
		}
		added[e] = true
		es = append(es, e)
		deg[u]++
		deg[v]++
		misses = 0
	}
	g := graph.MustFromEdges(n, es)
	aug := &Augmented{
		Base: topo.Base{TopoName: "SF+rand", G: g, N: sf.N, P: sf.P, Kp: g.MaxDegree(), Diam: sf.Diam},
		SF:   sf,
	}
	if err := aug.Base.Validate(); err != nil {
		return nil, err
	}
	return aug, nil
}

// SpectralGap estimates the expansion of the router graph (the paper's
// conclusion attributes SF's resiliency to expander-like structure,
// Section IX): it returns the second-largest adjacency eigenvalue
// lambda2 of the k'-regular graph, computed by power iteration with
// deflation of the all-ones eigenvector (the returned value is the
// largest non-trivial |eigenvalue|). Smaller lambda2 / k' means better
// expansion; Ramanujan graphs reach 2*sqrt(k'-1).
func (sf *SlimFly) SpectralGap(iters int) (lambda2 float64) {
	g := sf.Graph()
	n := g.N()
	if iters <= 0 {
		iters = 200
	}
	// Start from a deterministic pseudo-random vector orthogonal to 1.
	rng := stats.NewRNG(12345)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		// Deflate the trivial eigenvector (all ones).
		mean := 0.0
		for _, x := range v {
			mean += x
		}
		mean /= float64(n)
		for i := range v {
			v[i] -= mean
		}
		// next = A v.
		for i := range next {
			next[i] = 0
		}
		for u := 0; u < n; u++ {
			for _, w := range g.Neighbors(u) {
				next[u] += v[w]
			}
		}
		// Normalise.
		norm := 0.0
		for _, x := range next {
			norm += x * x
		}
		if norm == 0 {
			return 0
		}
		norm = math.Sqrt(norm)
		for i := range next {
			next[i] /= norm
		}
		v, next = next, v
	}
	// Rayleigh quotient (v is unit-norm).
	lam := 0.0
	for u := 0; u < n; u++ {
		s := 0.0
		for _, w := range g.Neighbors(u) {
			s += v[w]
		}
		lam += v[u] * s
	}
	if lam < 0 {
		lam = -lam
	}
	return lam
}
