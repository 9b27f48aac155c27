package scenario

// All topology kinds of the study are listed here; to add a kind, add one
// entry to the topologies table and it becomes addressable from the CLIs,
// sweep specs and the experiment suite at once.

import (
	"fmt"

	"slimfly/internal/roster"
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/topo/slimfly"
)

// rosterBuilder adapts a roster kind (balanced configuration near N
// endpoints) to the table's build signature.
func rosterBuilder(k roster.Kind) func(TopoSpec) (topo.Topology, error) {
	return func(t TopoSpec) (topo.Topology, error) {
		return roster.Near(k, t.N, t.Seed)
	}
}

// topologies is the topology axis, in presentation order.
var topologies = []TopologyDef{
	{
		Name:      "SF",
		Desc:      "Slim Fly MMS graph, diameter 2 (n near-sizing, or exact q with optional oversubscribed p)",
		Algebraic: true, // generator-set membership over GF(q), diameter 2
		Build: func(t TopoSpec) (topo.Topology, error) {
			switch {
			case t.Q > 0 && t.P > 0:
				return slimfly.NewWithConcentration(t.Q, t.P)
			case t.Q > 0:
				return slimfly.New(t.Q)
			default:
				return roster.Near(roster.SF, t.N, t.Seed)
			}
		},
	},
	{
		Name:  "DF",
		Desc:  "balanced Dragonfly (Kim et al.), diameter 3",
		Build: rosterBuilder(roster.DF),
	},
	{
		Name:      "FT-3",
		Desc:      "3-level fat tree (folded Clos)",
		Algebraic: true, // up/down level arithmetic
		Build:     rosterBuilder(roster.FT3),
	},
	{
		Name:  "FBF-3",
		Desc:  "3-dimensional flattened butterfly",
		Build: rosterBuilder(roster.FBF3),
	},
	{
		Name:      "T3D",
		Desc:      "3-dimensional torus",
		Algebraic: true, // per-dimension shortest wrap
		Build:     rosterBuilder(roster.T3D),
	},
	{
		Name:      "T5D",
		Desc:      "5-dimensional torus",
		Algebraic: true, // per-dimension shortest wrap
		Build:     rosterBuilder(roster.T5D),
	},
	{
		Name:      "HC",
		Desc:      "binary hypercube",
		Algebraic: true, // Hamming distance of coordinate bits
		Build:     rosterBuilder(roster.HC),
	},
	{
		Name:  "LH-HC",
		Desc:  "long-hop hypercube (extra expander channels)",
		Build: rosterBuilder(roster.LHHC),
	},
	{
		Name:  "DLN",
		Desc:  "random diameter-limited network (ring plus random shortcuts)",
		Build: rosterBuilder(roster.DLN),
	},
}

// Topology validates t and builds the named topology, without routing
// tables (structure-only consumers like sfgen skip the all-pairs BFS).
func Topology(t TopoSpec) (topo.Topology, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	def, err := lookup(Topologies, topologies, t.Kind)
	if err != nil {
		return nil, err
	}
	tp, err := def.Build(t)
	if err != nil {
		return nil, fmt.Errorf("scenario: building %s: %w", t, err)
	}
	return tp, nil
}

// Algebraic reports whether topology kind is listed with a
// closed-form routing oracle, i.e. the computed backend can serve it.
func Algebraic(kind string) bool {
	def, err := lookup(Topologies, topologies, kind)
	return err == nil && def.Algebraic
}

// BuildRouting builds the named topology and resolves its routing
// backend under policy and table-memory budget (route.Select): BFS
// tables while they fit, the topology's algebraic oracle above that, a
// *route.BudgetError for over-budget forced tables. Irregular kinds
// (no oracle) always get tables.
func BuildRouting(t TopoSpec, policy route.Policy, budget int64) (topo.Topology, route.Router, error) {
	tp, err := Topology(t)
	if err != nil {
		return nil, nil, err
	}
	o, _ := tp.(route.Oracle)
	sp := obsRouteBuildSpan.Start()
	rt, err := route.Select(tp.Graph(), o, policy, budget)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: routing for %s: %w", t, err)
	}
	return tp, rt, nil
}
