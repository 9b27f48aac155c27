package scenario

// All routing algorithms of the study are listed here; to add one, add
// one entry to the algos table and it becomes addressable from the CLIs,
// sweep specs and the experiment suite at once. Kinds restricts an algorithm to the
// topology kinds it can run on; building it elsewhere yields an
// *IncompatibleError.
//
// Algorithms implement the port-indexed sim.Algo contract: TargetPort
// answers with an output-port index taken from the precomputed routing
// tables (sim.PortToward / route.Tables.NextPort), never a router id, and
// Paths declares the route.PathSet the algorithm routes on, from which the
// engine derives the default VC count, whether it caches decisions per
// queue head and whether it spreads VCs; see the README's "Engine
// architecture" section for the full add-an-algorithm recipe.

import (
	"slimfly/internal/sim"
	"slimfly/internal/topo"
	"slimfly/internal/topo/fattree"
)

// tableAlgo adapts an algorithm that needs no topology-specific state.
func tableAlgo(a sim.Algo) func(topo.Topology) (sim.Algo, error) {
	return func(topo.Topology) (sim.Algo, error) { return a, nil }
}

// algos is the routing-algorithm axis, in presentation order.
var algos = []AlgoDef{
	{
		Name:  "min",
		Desc:  "minimal static routing (Section IV-A)",
		Build: tableAlgo(sim.MIN{}),
	},
	{
		Name:  "val",
		Desc:  "Valiant random routing (Section IV-B)",
		Build: tableAlgo(sim.VAL{}),
	},
	{
		Name:  "val3",
		Desc:  "Valiant constrained to paths of at most 3 hops (Section IV-B)",
		Build: tableAlgo(sim.VAL3{}),
	},
	{
		Name:  "ugal-l",
		Desc:  "UGAL with local queue information (Section IV-C2)",
		Build: tableAlgo(sim.UGALL{}),
	},
	{
		Name:  "ugal-g",
		Desc:  "UGAL with global queue information (Section IV-C1)",
		Build: tableAlgo(sim.UGALG{}),
	},
	{
		Name:  "anca",
		Desc:  "adaptive nearest-common-ancestor routing (FT-3 only)",
		Kinds: []string{"FT-3"},
		Build: func(tp topo.Topology) (sim.Algo, error) {
			ft, ok := tp.(*fattree.FatTree)
			if !ok {
				return nil, &IncompatibleError{
					Axis: Algos, Name: "anca", Topo: tp.Name(),
					Reason: "requires a 3-level fat tree (kind FT-3)",
				}
			}
			return sim.FTANCA{FT: ft}, nil
		},
	},
}

// BuildAlgo constructs the named routing algorithm for an already built
// topology. Unknown names yield an *UnknownError enumerating the table;
// topology constraints yield an *IncompatibleError.
func BuildAlgo(name string, tp topo.Topology) (sim.Algo, error) {
	def, err := lookup(Algos, algos, name)
	if err != nil {
		return nil, err
	}
	return def.Build(tp)
}
