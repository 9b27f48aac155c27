package scenario

import (
	"slimfly/internal/route"
	"slimfly/internal/sim"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// TopologyDef is one topology kind: how to build it from a
// TopoSpec, plus a one-line description for -list output. Algebraic
// declares that every instance the kind builds implements route.Oracle
// (closed-form distances), so the computed routing backend is available;
// the conformance test checks the flag against the built instances.
type TopologyDef struct {
	Name      string
	Desc      string
	Algebraic bool
	Build     func(t TopoSpec) (topo.Topology, error)
}

// AlgoDef is one routing algorithm. Kinds, when non-empty,
// restricts the topology kinds the algorithm pairs with (sweep expansion
// skips other pairs; building one anyway yields an *IncompatibleError).
type AlgoDef struct {
	Name  string
	Desc  string
	Kinds []string
	Build func(tp topo.Topology) (sim.Algo, error)
}

// PatternDef is one traffic pattern. Build receives the topology,
// its routing backend and a seed (adversarial patterns need all three;
// others ignore what they don't use).
type PatternDef struct {
	Name  string
	Desc  string
	Build func(tp topo.Topology, rt route.Router, seed uint64) (traffic.Pattern, error)
}

// def is what the three axis tables (topologies, algos, patterns: ordered
// slice literals in their own files) have in common: a name and a
// description for lookups and -list output.
type def interface{ info() Info }

func (d TopologyDef) info() Info { return Info{Name: d.Name, Desc: d.Desc, Algebraic: d.Algebraic} }
func (d AlgoDef) info() Info     { return Info{Name: d.Name, Desc: d.Desc} }
func (d PatternDef) info() Info  { return Info{Name: d.Name, Desc: d.Desc} }

// lookup finds name in an axis table; a miss is an *UnknownError
// enumerating the table.
func lookup[D def](axis Axis, table []D, name string) (D, error) {
	for _, d := range table {
		if d.info().Name == name {
			return d, nil
		}
	}
	var none D
	return none, &UnknownError{Axis: axis, Name: name, Known: names(table)}
}

// describe lists a table's entries in table (presentation) order.
func describe[D def](table []D) []Info {
	out := make([]Info, len(table))
	for i, d := range table {
		out[i] = d.info()
	}
	return out
}

func names[D def](table []D) []string {
	out := make([]string, len(table))
	for i, d := range table {
		out[i] = d.info().Name
	}
	return out
}
