package scenario_test

import (
	"errors"
	"testing"

	"slimfly/internal/scenario"
	"slimfly/internal/sim"
	"slimfly/internal/traffic"
)

// TestRegistryConformance is the registry-wide acceptance sweep: for every
// registered topology kind at small N it builds the network, structurally
// validates it, routes it, and completes a short simulation with every
// compatible algorithm and pattern. Incompatible pairs must be skipped
// with the structured reasons the capability API promises -- an
// *IncompatibleError naming the pair for constrained algorithms, and the
// documented uniform fallback for "worstcase" on families without an
// adversarial permutation -- so a newly registered axis value is
// exercised everywhere by construction.
func TestRegistryConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	const targetN = 96
	simParams := scenario.SimParams{Warmup: 20, Measure: 60, Drain: 400}

	for _, kind := range names(scenario.Topologies) {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			env := scenario.NewEnv()
			ts := scenario.TopoSpec{Kind: kind, N: targetN, Seed: 1}
			tp, tb, err := env.Topo(ts)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if v, ok := tp.(interface{ Validate() error }); ok {
				if err := v.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
			}
			if tb.MaxDistance() <= 0 {
				t.Fatalf("routing tables empty: max distance %d", tb.MaxDistance())
			}

			for _, algoName := range names(scenario.Algos) {
				algo, err := scenario.BuildAlgo(algoName, tp)
				if !scenario.Compatible(ts, algoName) {
					// The registry declares the pair incompatible; the
					// builder must agree, with a structured reason.
					var ie *scenario.IncompatibleError
					if !errors.As(err, &ie) {
						t.Errorf("algo %s on %s: err = %v, want *IncompatibleError", algoName, kind, err)
						continue
					}
					if ie.Name != algoName || ie.Topo != tp.Name() || ie.Reason == "" {
						t.Errorf("algo %s on %s: skip reason incomplete: %+v", algoName, kind, ie)
					}
					continue
				}
				if err != nil {
					t.Errorf("algo %s on %s: %v", algoName, kind, err)
					continue
				}
				_ = algo

				for _, patName := range names(scenario.Patterns) {
					pat, err := env.Pattern(ts, patName, 1)
					if err != nil {
						t.Errorf("pattern %s on %s: %v", patName, kind, err)
						continue
					}
					if patName == "worstcase" {
						// The capability API decides adversarial coverage:
						// families implementing WorstCaser get their
						// adversarial permutation, the rest fall back to
						// uniform (the documented skip reason).
						if scenario.HasWorstCase(tp) {
							if _, isUniform := pat.(traffic.Uniform); isUniform {
								t.Errorf("%s implements WorstCaser but worstcase resolved to uniform", kind)
							}
						} else if _, isUniform := pat.(traffic.Uniform); !isUniform {
							t.Errorf("%s has no WorstCaser; worstcase resolved to %s, want uniform fallback", kind, pat.Name())
						}
					}

					cfg, err := env.Config(scenario.Spec{
						Topo: ts, Algo: algoName, Pattern: patName,
						Load: 0.1, Seed: 1, Sim: simParams,
					})
					if err != nil {
						t.Errorf("config %s/%s/%s: %v", kind, algoName, patName, err)
						continue
					}
					res, _, err := sim.RunSummary(cfg)
					if err != nil {
						t.Errorf("run %s/%s/%s: %v", kind, algoName, patName, err)
						continue
					}
					if res.Delivered <= 0 {
						t.Errorf("run %s/%s/%s delivered no packets", kind, algoName, patName)
					}
				}
			}
		})
	}
}
