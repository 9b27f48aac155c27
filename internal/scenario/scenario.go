// Package scenario is the single string-addressable construction API for
// the three scenario axes of the study: topologies, routing algorithms and
// traffic patterns. Every axis is an ordered table of named factories; the
// CLI tools (sfsim, sfsweep, sfgen), the sweep engine and the experiment
// suite all resolve scenarios through it, so a topology, algorithm or
// pattern listed here is immediately available everywhere by name and
// coverage between the consumers can never drift.
//
// The axes:
//
//   - Topologies are built from a TopoSpec (roster kind + target size, or
//     an exact Slim Fly q with optional oversubscribed concentration p).
//   - Algorithms are built against an already constructed topology;
//     per-algorithm topology constraints (ANCA requires a 3-level fat
//     tree) surface as *IncompatibleError values, not process exits.
//   - Patterns are built against a topology and its routing tables; the
//     adversarial "worstcase" pattern dispatches through the WorstCaser
//     capability interface implemented by the families that have one
//     (Slim Fly, Dragonfly, SF-DF, fat tree) and falls back to uniform
//     traffic elsewhere, exactly like the paper's methodology.
//
// A Spec bundles one point of the cross product (topology x algorithm x
// pattern x load x simulator knobs) and is JSON-roundtrippable; an Env
// resolves Specs into runnable sim.Configs, memoising topology and
// pattern construction so concurrent resolvers share one build.
//
// To add a new scenario axis value, add an entry to its table (see
// topologies.go, algos.go, patterns.go) and it appears in every consumer:
// CLI -list output, spec validation, sweep expansion and the conformance
// test.
package scenario

import (
	"fmt"
	"strings"

	"slimfly/internal/route"
	"slimfly/internal/topo"
	"slimfly/internal/traffic"
)

// Axis names one of the three scenario tables.
type Axis string

// The scenario axes.
const (
	Topologies Axis = "topology"
	Algos      Axis = "algo"
	Patterns   Axis = "pattern"
)

// Info describes one table entry for CLI help and documentation.
// Algebraic is set for topology kinds whose instances carry a closed-form
// routing oracle (route.Oracle), i.e. the kinds the computed backend can
// serve without n*n tables.
type Info struct {
	Name      string
	Desc      string
	Algebraic bool
}

// UnknownError reports a name that is not in its axis's table; Known
// enumerates the valid names so callers (CLI flag parsing, spec
// validation) never need to maintain their own lists. The JSON tags make
// the error directly embeddable in structured API responses: sfsweepd's
// 400 bodies carry the failing axis/name and the valid names verbatim.
type UnknownError struct {
	Axis  Axis     `json:"axis"`
	Name  string   `json:"name"`
	Known []string `json:"known"`
}

// Error implements error.
func (e *UnknownError) Error() string {
	return fmt.Sprintf("scenario: unknown %s %q (known: %s)",
		e.Axis, e.Name, strings.Join(e.Known, " "))
}

// IncompatibleError reports a scenario pair that cannot be built together,
// e.g. the fat-tree-only ANCA algorithm on a Slim Fly. It replaces the
// ad-hoc os.Exit checks the CLIs used to carry.
type IncompatibleError struct {
	Axis   Axis   `json:"axis"`   // axis of the rejected selection (Algos or Patterns)
	Name   string `json:"name"`   // the selected name, e.g. "anca"
	Topo   string `json:"topo"`   // the topology it cannot pair with
	Reason string `json:"reason"` // human-readable constraint, e.g. "requires a 3-level fat tree"
}

// Error implements error.
func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("scenario: %s %q is incompatible with topology %s: %s",
		e.Axis, e.Name, e.Topo, e.Reason)
}

// WorstCaser is the capability interface for topology families with a
// known adversarial traffic permutation (Section V-C). Implementations
// live with the topology constructions; the "worstcase" pattern factory
// dispatches through it instead of a type switch, so new families opt in
// by implementing the method.
type WorstCaser interface {
	// WorstCase returns the family's adversarial pattern. rt answers
	// minimal routing for the topology's router graph; seed determinises
	// any random tie-breaking.
	WorstCase(rt route.Router, seed uint64) traffic.Pattern
}

// HasWorstCase reports whether tp's family provides an adversarial
// pattern; without one, the "worstcase" pattern resolves to uniform
// traffic.
func HasWorstCase(tp topo.Topology) bool {
	_, ok := tp.(WorstCaser)
	return ok
}

// Describe returns name+description pairs for an axis in table order,
// for CLI -list output and documentation.
func Describe(a Axis) []Info {
	switch a {
	case Topologies:
		return describe(topologies)
	case Algos:
		return describe(algos)
	case Patterns:
		return describe(patterns)
	}
	return nil
}

// CheckName returns nil when name is in axis a's table, and a
// *UnknownError enumerating the valid names otherwise.
func CheckName(a Axis, name string) error {
	switch a {
	case Topologies:
		_, err := lookup(Topologies, topologies, name)
		return err
	case Algos:
		_, err := lookup(Algos, algos, name)
		return err
	case Patterns:
		_, err := lookup(Patterns, patterns, name)
		return err
	}
	return fmt.Errorf("scenario: unknown axis %q", a)
}

// Compatible reports whether the named algorithm can pair with topology
// spec t, per the algorithm's Kinds constraint. Sweep expansion uses it to
// skip incompatible pairs before anything is built; unknown algorithm
// names are reported compatible here and rejected with a structured error
// at build time.
func Compatible(t TopoSpec, algo string) bool {
	def, err := lookup(Algos, algos, algo)
	if err != nil {
		return true
	}
	if len(def.Kinds) == 0 {
		return true
	}
	for _, k := range def.Kinds {
		if k == t.Kind {
			return true
		}
	}
	return false
}

// ListText renders the three tables as the shared -list output of the
// CLI tools; sfsim and sfsweep print it verbatim, so their accepted names
// can never disagree.
func ListText() string {
	var b strings.Builder
	sections := []struct {
		head string
		axis Axis
	}{
		{"topologies", Topologies},
		{"algos", Algos},
		{"patterns", Patterns},
	}
	for i, s := range sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s:\n", s.head)
		for _, in := range Describe(s.axis) {
			suffix := ""
			if in.Algebraic {
				suffix = " [algebraic routing]"
			}
			fmt.Fprintf(&b, "  %-10s %s%s\n", in.Name, in.Desc, suffix)
		}
	}
	return b.String()
}
