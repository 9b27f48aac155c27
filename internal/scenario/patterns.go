package scenario

// All traffic patterns of the study are listed here; to add one, add one
// entry to the patterns table and it becomes addressable from the CLIs,
// sweep specs and the experiment suite at once.

import (
	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// simplePattern adapts a pattern needing only the endpoint count.
func simplePattern(f func(n int) traffic.Pattern) func(topo.Topology, route.Router, uint64) (traffic.Pattern, error) {
	return func(tp topo.Topology, _ route.Router, _ uint64) (traffic.Pattern, error) {
		return f(tp.Endpoints()), nil
	}
}

// patterns is the traffic-pattern axis, in presentation order.
var patterns = []PatternDef{
	{
		Name:  "uniform",
		Desc:  "uniform random traffic (Section V-A)",
		Build: simplePattern(func(n int) traffic.Pattern { return traffic.Uniform{N: n} }),
	},
	{
		Name:  "shuffle",
		Desc:  "shuffle bit permutation d_i = s_(i-1 mod b)",
		Build: simplePattern(func(n int) traffic.Pattern { return traffic.Shuffle(n) }),
	},
	{
		Name:  "bitrev",
		Desc:  "bit reversal permutation d_i = s_(b-i-1)",
		Build: simplePattern(func(n int) traffic.Pattern { return traffic.BitReversal(n) }),
	},
	{
		Name:  "bitcomp",
		Desc:  "bit complement permutation d_i = NOT s_i",
		Build: simplePattern(func(n int) traffic.Pattern { return traffic.BitComplement(n) }),
	},
	{
		Name:  "shift",
		Desc:  "shift pattern over the endpoint halves (Section V-B)",
		Build: simplePattern(func(n int) traffic.Pattern { return traffic.Shift{N: n} }),
	},
	{
		Name: "worstcase",
		Desc: "per-family adversarial permutation (Section V-C); uniform where no adversary is known",
		Build: func(tp topo.Topology, rt route.Router, seed uint64) (traffic.Pattern, error) {
			if wc, ok := tp.(WorstCaser); ok {
				return wc.WorstCase(rt, seed), nil
			}
			return traffic.Uniform{N: tp.Endpoints()}, nil
		},
	},
}

// BuildPattern constructs the named traffic pattern for an already built
// topology; the empty name means uniform. "worstcase" dispatches through
// the WorstCaser capability, so a topology family gains adversarial
// coverage everywhere (CLI, sweep, experiments) by implementing it.
func BuildPattern(name string, tp topo.Topology, rt route.Router, seed uint64) (traffic.Pattern, error) {
	if name == "" {
		name = "uniform"
	}
	def, err := lookup(Patterns, patterns, name)
	if err != nil {
		return nil, err
	}
	return def.Build(tp, rt, seed)
}
