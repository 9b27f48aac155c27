// Package sfdf implements the hierarchical construction the paper sketches
// in Section VII-B: a Dragonfly-style two-level network whose groups are
// Slim Fly (MMS) graphs instead of cliques. Each group is a copy of the
// SF MMS graph for field order q; the g groups form a complete graph with
// one global channel between every pair, spread round-robin over the
// routers of each group. This raises the logical group radix far beyond a
// clique of equal router count, cutting global-channel pressure relative
// to a classic Dragonfly.
package sfdf

import (
	"fmt"

	"slimfly/internal/graph"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/traffic"
)

// SFDF is a Dragonfly of Slim Fly groups.
type SFDF struct {
	topo.Base
	Q          int // field order of the per-group SF
	Groups     int
	GroupSize  int // routers per group (2q^2)
	GlobalsPer int // global channels per router (h)
}

// New builds an SF-grouped Dragonfly: groups copies of the SF(q) graph,
// each router contributing h global channels, with the complete inter-
// group graph requiring groups-1 <= h * 2q^2 channels per group. The
// concentration p defaults (p <= 0) to the balanced SF value.
func New(q, groups, h, p int) (*SFDF, error) {
	if groups < 2 {
		return nil, fmt.Errorf("sfdf: need at least 2 groups")
	}
	if h < 1 {
		return nil, fmt.Errorf("sfdf: h=%d global channels per router must be >= 1", h)
	}
	proto, err := slimfly.New(q)
	if err != nil {
		return nil, err
	}
	size := proto.Routers()
	if groups-1 > h*size {
		return nil, fmt.Errorf("sfdf: %d groups need %d global channels per group, have h*2q^2 = %d",
			groups, groups-1, h*size)
	}
	if p <= 0 {
		p = proto.Concentration()
	}

	s := &SFDF{Q: q, Groups: groups, GroupSize: size, GlobalsPer: h}
	s.TopoName = "SF-DF"
	s.P = p
	s.Diam = 2*proto.DesignDiameter() + 1 // local, global, local worst case
	nr := groups * size
	s.N = p * nr

	g := graph.New(nr)
	// Local links: copies of the SF graph.
	edges := proto.Graph().Edges()
	for grp := 0; grp < groups; grp++ {
		base := grp * size
		for _, e := range edges {
			g.MustAddEdge(base+int(e.U), base+int(e.V))
		}
	}
	// Global links: channel c of group u (c in [0, groups-1)) connects to
	// group (u+c+1) mod groups, served by router c mod size.
	for u := 0; u < groups; u++ {
		for c := 0; c < groups-1; c++ {
			v := (u + c + 1) % groups
			if u > v {
				continue
			}
			cp := ((u-v-1)%groups + groups) % groups
			g.MustAddEdge(u*size+c%size, v*size+cp%size)
		}
	}
	g.SortAdjacency()
	s.G = g
	s.Kp = g.MaxDegree()
	if err := s.Base.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Group returns the group index of router r.
func (s *SFDF) Group(r int) int { return r / s.GroupSize }

// WorstCase implements the scenario WorstCaser capability: like the
// classic Dragonfly, consecutive-group traffic stresses the inter-group
// channels, though SF groups expose more of them.
func (s *SFDF) WorstCase(_ route.Router, _ uint64) traffic.Pattern {
	return traffic.WorstCaseDF(s.Group, s, s.Groups)
}
