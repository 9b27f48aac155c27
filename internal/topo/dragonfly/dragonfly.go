// Package dragonfly implements the balanced Dragonfly topology of Kim et
// al. (ISCA'08), the paper's main state-of-the-art comparison point.
//
// A balanced Dragonfly is parameterised by p (endpoints per router) with
// a = 2p routers per group and h = p global channels per router. Groups are
// fully connected internally (a-1 local channels per router) and the
// g = a*h + 1 groups form a complete graph with exactly one global channel
// between every pair of groups. Router radix k = (a-1) + h + p = 4p - 1 and
// the network has N = a*g*p endpoints with diameter 3 (local, global,
// local).
package dragonfly

import (
	"fmt"

	"slimfly/internal/graph"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// Dragonfly is a balanced Dragonfly network.
type Dragonfly struct {
	topo.Base
	Pp int // endpoints per router
	A  int // routers per group
	H  int // global channels per router
	Gn int // number of groups
}

// Params returns the derived parameters for a balanced Dragonfly with the
// given p: routers per group a, global channels h, groups g, routers Nr,
// endpoints N, and radix k.
func Params(p int) (a, h, g, nr, n, k int) {
	a = 2 * p
	h = p
	g = a*h + 1
	nr = a * g
	n = nr * p
	k = (a - 1) + h + p
	return
}

// New constructs a balanced Dragonfly with concentration p >= 1.
func New(p int) (*Dragonfly, error) {
	if p < 1 {
		return nil, fmt.Errorf("dragonfly: p=%d must be >= 1", p)
	}
	a, h, g, nr, n, _ := Params(p)
	df := &Dragonfly{Pp: p, A: a, H: h, Gn: g}
	df.TopoName = "DF"
	df.P = p
	df.Kp = (a - 1) + h
	df.Diam = 3
	df.N = n

	es := make([]graph.Edge, 0, nr*df.Kp/2)
	add := func(u, v int) { es = append(es, graph.Edge{U: int32(u), V: int32(v)}) }
	// Local channels: each group is a clique of a routers.
	for grp := 0; grp < g; grp++ {
		base := grp * a
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				add(base+i, base+j)
			}
		}
	}
	// Global channels: group u's global channel c (c in [0, g-1)) connects
	// to group (u + c + 1) mod g. Channel c is served by router c/h of the
	// group via its global port c%h. Adding each link once from the lower
	// endpoint of the (u, v) group pair keeps the graph simple.
	for u := 0; u < g; u++ {
		for c := 0; c < g-1; c++ {
			v := (u + c + 1) % g
			if u > v {
				continue // added when processing the other side
			}
			// Router at group v serving the return channel c' with
			// (v + c' + 1) mod g == u.
			cp := ((u-v-1)%g + g) % g
			add(u*a+c/h, v*a+cp/h)
		}
	}
	df.G = graph.MustFromEdges(nr, es)
	if err := df.Base.Validate(); err != nil {
		return nil, err
	}
	return df, nil
}

// MustNew is New but panics on error.
func MustNew(p int) *Dragonfly {
	df, err := New(p)
	if err != nil {
		panic(err)
	}
	return df
}

// Group returns the group index of router r.
func (df *Dragonfly) Group(r int) int { return r / df.A }

// WorstCase implements the scenario WorstCaser capability: the Kim et al.
// adversarial pattern overloading the single global channel between
// consecutive groups.
func (df *Dragonfly) WorstCase(_ route.Router, _ uint64) traffic.Pattern {
	return traffic.WorstCaseDF(df.Group, df, df.Gn)
}
