// Package layout arranges a topology's routers into racks and derives the
// cable inventory (lengths and electric-vs-fiber classification) that the
// cost and power models of Section VI consume.
//
// Following Section VI-B: routers and their endpoints are grouped in racks
// of 1x1x2 m; racks are placed on a near-square grid; intra-rack cables are
// electric and average 1 m; inter-rack (global) cables are optical fiber
// with Manhattan-metric length plus 2 m of overhead; tori use a folded
// design with electric cabling only.
package layout

import (
	"math"

	"slimfly/internal/topo"
	"slimfly/internal/topo/dragonfly"
	"slimfly/internal/topo/fattree"
	"slimfly/internal/topo/fbutterfly"
	"slimfly/internal/topo/hypercube"
	"slimfly/internal/topo/longhop"
	"slimfly/internal/topo/random"
	"slimfly/internal/topo/slimfly"
	"slimfly/internal/topo/torus"
)

// Cable is one router-to-router link.
type Cable struct {
	Length float64 // metres
	Fiber  bool
}

// Layout is the physical arrangement of a network.
type Layout struct {
	Racks          int
	RackOf         []int32 // router -> rack
	Cables         []Cable // router-router cables
	EndpointCables int     // endpoint uplinks (1 m electric each)
}

// Electric and Fiber count the cables of each class.
func (l Layout) Electric() int {
	n := 0
	for _, c := range l.Cables {
		if !c.Fiber {
			n++
		}
	}
	return n
}

// Fiber counts the optical cables.
func (l Layout) Fiber() int { return len(l.Cables) - l.Electric() }

// intraRackLen is the average intra-rack cable length (Section VI-B: max
// Manhattan distance inside a rack is ~2 m, minimum 5-10 cm, average 1 m).
const intraRackLen = 1.0

// globalOverhead is the extra cable length budgeted per inter-rack link.
const globalOverhead = 2.0

// grid places nRacks racks on a near-square grid and returns their
// coordinates in metres (1 m pitch, Section VI-A Step 4).
func grid(nRacks int) [][2]int {
	w := int(math.Ceil(math.Sqrt(float64(nRacks))))
	pos := make([][2]int, nRacks)
	for i := range pos {
		pos[i] = [2]int{i % w, i / w}
	}
	return pos
}

// manhattan returns the inter-rack cable length.
func manhattan(a, b [2]int) float64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return float64(dx+dy) + globalOverhead
}

// Compute builds the layout for an arbitrary rack assignment.
// electricOnly marks topologies (folded tori) whose global links stay
// electric.
func Compute(t topo.Topology, rackOf func(r int) int, nRacks int, electricOnly bool) Layout {
	l := Layout{
		Racks:          nRacks,
		RackOf:         make([]int32, t.Routers()),
		EndpointCables: t.Endpoints(),
	}
	for r := 0; r < t.Routers(); r++ {
		l.RackOf[r] = int32(rackOf(r))
	}
	pos := grid(nRacks)
	for _, e := range t.Graph().Edges() {
		ra, rb := l.RackOf[e.U], l.RackOf[e.V]
		if ra == rb {
			l.Cables = append(l.Cables, Cable{Length: intraRackLen, Fiber: false})
			continue
		}
		length := manhattan(pos[ra], pos[rb])
		l.Cables = append(l.Cables, Cable{Length: length, Fiber: !electricOnly})
	}
	return l
}

// For derives the paper's per-topology layout (Section VI-B3) for any of
// the study's constructions; unknown types fall back to racks of 32
// routers.
func For(t topo.Topology) Layout {
	switch tt := t.(type) {
	case *slimfly.SlimFly:
		return slimFlyRacks(t, tt)
	case *slimfly.Augmented:
		return slimFlyRacks(t, tt.SF) // shortcuts add cables, not racks
	case *dragonfly.Dragonfly:
		return Compute(t, tt.Group, tt.Gn, false)
	case *fattree.FatTree:
		// Edge+agg switches of pod a form rack a; core switches fill
		// ceil(p/2) additional central racks (2p cores per rack).
		p := tt.Arity
		coreRacks := (p + 1) / 2
		return Compute(t, func(r int) int {
			if tt.Level(r) == 2 {
				core := r - 2*p*p
				return p + core/(2*p)
			}
			return tt.Pod(r)
		}, p+coreRacks, false)
	case *fbutterfly.FBF3:
		// p^2 racks of p routers: routers sharing (x, y) share a rack; the
		// z-dimension cliques are the intra-rack cables (Section VI-B3d).
		c := tt.C
		return Compute(t, func(r int) int { x, y, _ := tt.Coords(r); return x*c + y }, c*c, false)
	case *torus.Torus:
		// Folded tori: all-electric cabling (Section VI-B3a); racks of 32.
		return rackBlocks(t, 32, true)
	case *hypercube.Hypercube:
		return rackBlocks(t, 32, false)
	case *longhop.LongHop:
		return rackBlocks(t, 32, false)
	case *random.DLN:
		// Groups of consecutive ring segments, sized like DF groups.
		size := 2 * tt.Concentration()
		if size < 4 {
			size = 4
		}
		return rackBlocks(t, size, false)
	default:
		return rackBlocks(t, 32, false)
	}
}

// slimFlyRacks is the Section VI-A layout of t's routers by their labels
// in sf: column x of subgraph 0 merges with column m = x of subgraph 1; q
// racks of 2q routers, 2q cables between rack pairs.
func slimFlyRacks(t topo.Topology, sf *slimfly.SlimFly) Layout {
	return Compute(t, func(r int) int { _, a, _ := sf.RouterLabel(r); return a }, sf.Q, false)
}

// rackBlocks groups consecutive router ids into racks of the given size.
func rackBlocks(t topo.Topology, size int, electricOnly bool) Layout {
	nRacks := (t.Routers() + size - 1) / size
	return Compute(t, func(r int) int { return r / size }, nRacks, electricOnly)
}
