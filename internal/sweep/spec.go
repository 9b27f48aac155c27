// Package sweep is the experiment-orchestration subsystem: a declarative
// sweep specification (topology family x size x routing algorithm x traffic
// pattern x load grid x seeds) is expanded into a deterministic job list and
// executed by a worker pool backed by a content-addressed on-disk result
// cache. Re-running a sweep only executes new or changed points, so an
// interrupted sweep resumes where it left off.
//
// Scenario axes (topologies, algorithms, patterns) are named strings
// resolved through the internal/scenario registries; a spec accepts
// exactly the names `sfsim -list` and `sfsweep -list` print.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"slimfly/internal/scenario"
)

// TopoSpec names one network to sweep over. Either Kind+N (a roster
// topology built near N endpoints) or Kind "SF" with an explicit Q (and
// optionally an oversubscribed concentration P).
type TopoSpec = scenario.TopoSpec

// SimParams are the simulator knobs shared by every job of a sweep. Zero
// values mean "simulator default" (see sim.Config.withDefaults); they are
// hashed as written, so an explicit default and an omitted field produce
// different keys.
type SimParams = scenario.SimParams

// Job is one fully resolved simulation point of a sweep: a scenario spec.
// Job.Key() is the content address used by the result cache.
type Job = scenario.Spec

// Spec is a declarative sweep: the cross product of its axes, minus
// incompatible pairs (per the scenario registry's constraints, e.g. the
// fat-tree-only "anca" algorithm is paired only with FT-3 topologies).
type Spec struct {
	Name     string     `json:"name"`
	Topos    []TopoSpec `json:"topologies"`
	Algos    []string   `json:"algos"`    // registered algo names; see scenario.Describe
	Patterns []string   `json:"patterns"` // registered pattern names
	Loads    []float64  `json:"loads"`
	Seeds    []uint64   `json:"seeds,omitempty"` // default: [1]
	Sim      SimParams  `json:"sim,omitempty"`
}

// Validate checks the spec for structural errors before expansion. Axis
// names are checked against the scenario registries, so the error for an
// unknown name enumerates the valid ones; each load, with the sim block every
// job shares, meets the engine's limits through scenario.Spec.CheckLimits.
func (s *Spec) Validate() error {
	if len(s.Topos) == 0 {
		return fmt.Errorf("sweep: spec %q has no topologies", s.Name)
	}
	if len(s.Algos) == 0 {
		return fmt.Errorf("sweep: spec %q has no algos", s.Name)
	}
	if len(s.Loads) == 0 {
		return fmt.Errorf("sweep: spec %q has no loads", s.Name)
	}
	for _, t := range s.Topos {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
	}
	for _, a := range s.Algos {
		if err := scenario.CheckName(scenario.Algos, a); err != nil {
			return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
	}
	for _, p := range s.Patterns {
		if err := scenario.CheckName(scenario.Patterns, p); err != nil {
			return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
	}
	// The sim block and its collector names are the same for every load:
	// the first load is checked with them, each later one alone (with the
	// default block, which always passes). sim.Config.Check checks the load
	// before the block, so the first error is the one a check of every
	// load with the block would give.
	for i, l := range s.Loads {
		js := scenario.Spec{Load: l}
		if i == 0 {
			js.Sim = s.Sim
		}
		if err := js.CheckLimits(); err != nil {
			return fmt.Errorf("sweep: spec %q: %w", s.Name, err)
		}
	}
	return nil
}

// Expand produces the deterministic job list of the sweep: nested loops
// over topologies, patterns, algorithms, loads and seeds, in spec order,
// skipping topology/algorithm pairs the scenario registry declares
// incompatible. Two calls on the same spec always yield the same list in
// the same order.
func (s *Spec) Expand() ([]Job, error) {
	return ExpandAll([]*Spec{s})
}

// size validates the spec and counts its jobs: every compatible
// topology/algorithm pair once per pattern, load and seed.
func (s *Spec) size() (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	pairs := 0
	for _, t := range s.Topos {
		for _, a := range s.Algos {
			if scenario.Compatible(t, a) {
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0, fmt.Errorf("sweep: spec %q expands to no compatible jobs", s.Name)
	}
	return pairs * max(len(s.Patterns), 1) * len(s.Loads) * max(len(s.Seeds), 1), nil
}

// appendJobs appends the spec's jobs to jobs, in Expand's order.
func (s *Spec) appendJobs(jobs []Job) []Job {
	patterns := s.Patterns
	if len(patterns) == 0 {
		patterns = []string{"uniform"}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	for _, t := range s.Topos {
		for _, p := range patterns {
			for _, a := range s.Algos {
				if !scenario.Compatible(t, a) {
					continue
				}
				for _, l := range s.Loads {
					for _, sd := range seeds {
						jobs = append(jobs, Job{
							Topo: t, Algo: a, Pattern: p, Load: l, Seed: sd, Sim: s.Sim,
						})
					}
				}
			}
		}
	}
	return jobs
}

// ParseSpec decodes a JSON sweep spec and validates it. Unknown fields are
// rejected so typos in hand-written specs fail loudly instead of silently
// sweeping the wrong grid.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parsing spec: %w", err)
	}
	if err := checkEnd(dec); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// checkEnd returns an error unless dec's input holds nothing but
// whitespace after the value it decoded: a second spec or stray bytes
// after the first would otherwise be dropped without a word, and only
// part of the file swept.
func checkEnd(dec *json.Decoder) error {
	off := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("sweep: parsing spec: data after the top-level value at offset %d", off)
	}
	return nil
}

// ParseSpecs decodes either a single JSON spec object or a JSON array of
// specs. Grouped experiments (each topology paired with its own protocol
// set, as in Figure 6) are expressed as an array whose expansions are
// concatenated by ExpandAll.
func ParseSpecs(r io.Reader) ([]*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sweep: reading spec: %w", err)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("sweep: empty spec")
	}
	var specs []*Spec
	switch trimmed[0] {
	case '[':
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&specs); err != nil {
			return nil, fmt.Errorf("sweep: parsing spec list: %w", err)
		}
		if err := checkEnd(dec); err != nil {
			return nil, err
		}
	case '{':
		s, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return []*Spec{s}, nil
	default:
		return nil, fmt.Errorf("sweep: spec must be a JSON object or array")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweep: empty spec list")
	}
	for i, s := range specs {
		if s == nil {
			return nil, fmt.Errorf("sweep: spec %d in list is null", i)
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// ExpandAll concatenates the deterministic expansions of several specs,
// in order. Every spec is validated and its jobs counted first, so the
// list is made once at its exact size; the first spec that fails is the
// error, as Expand would give it.
func ExpandAll(specs []*Spec) ([]Job, error) {
	n := 0
	for _, s := range specs {
		c, err := s.size()
		if err != nil {
			return nil, err
		}
		n += c
	}
	if n == 0 {
		return nil, nil
	}
	jobs := make([]Job, 0, n)
	for _, s := range specs {
		jobs = s.appendJobs(jobs)
	}
	return jobs, nil
}
